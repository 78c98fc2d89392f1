"""Exact output checks, computed from the generated inputs alone.

Each check takes the structured report the CLI printed and the facts the
generator recorded, and raises `Mismatch` on the first disagreement.  No
check calls into dutchbook: verdicts are re-derived with `Fraction`
arithmetic (synchronic and temporal books) or with numpy linear algebra
(quantum scenarios).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

#: The program's documented tolerance for algebraic identities on small
#: dimensions; the decohered-state cross-check must meet it.
ALG_TOL = 1e-12
#: Agreement required between the program's floats and the checker's own
#: computation of the same quantities, and of the reconstructed state.
FLOAT_TOL = 1e-9


class Mismatch(Exception):
    """The program's output disagrees with the independent check."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _net(atom: int, event, condition, price: Fraction) -> Fraction:
    # Net payoff to a buyer of one ticket, price paid; a called-off ticket
    # is refunded off its condition.
    if condition is not None and atom not in condition:
        return Fraction(0)
    return (1 if atom in event else 0) - price


def synchronic(report: dict, code: int, book: dict) -> str:
    """Check a synchronic audit report; return the verdict."""
    labels = book["doc"]["atoms"]
    priced = book["priced"]
    verdict = report.get("verdict")
    _expect(report.get("kind") == "synchronic-audit", "report kind")
    if verdict == "coherent":
        _expect(code == 0, f"exit code {code} for a coherent verdict")
        witness = report["witness"]
        _expect(report["portfolio"] is None and report["losses"] is None,
                "coherent report carries a portfolio")
        _expect(sorted(witness) == sorted(labels), "witness atoms")
        w = [Fraction(witness[label]) for label in labels]
        _expect(all(x >= 0 for x in w), "negative witness mass")
        _expect(sum(w) == 1, "witness does not sum to 1")
        for k, (event, condition, price) in enumerate(priced):
            if condition is None:
                ok = sum(w[i] for i in event) == price
            else:
                ok = (sum(w[i] for i in event & condition)
                      == price * sum(w[i] for i in condition))
            _expect(ok, f"witness misses price {k}")
        return verdict

    _expect(verdict == "incoherent", f"unknown verdict {verdict!r}")
    _expect(code == 2, f"exit code {code} for an incoherent verdict")
    _expect(not book["measure_priced"],
            "book priced from a measure reported incoherent")
    _expect(report["witness"] is None, "incoherent report carries a witness")
    legs = []
    for leg in report["portfolio"]:
        quantity = Fraction(leg["quantity"])
        _expect(quantity > 0, "non-positive leg quantity")
        _expect(leg["direction"] in ("buy", "sell"), "leg direction")
        sign = 1 if leg["direction"] == "buy" else -1
        legs.append((sign * quantity, priced[leg["assessment"]]))
    losses = report["losses"]
    _expect(sorted(losses) == sorted(labels), "settlement atoms")
    for atom, label in enumerate(labels):
        total = sum((q * _net(atom, *ticket) for q, ticket in legs),
                    Fraction(0))
        _expect(total < 0, f"no sure loss at atom {label}")
        _expect(Fraction(losses[label]) == total,
                f"reported settlement differs at atom {label}")
    return verdict


def temporal(report: dict, code: int, facts: dict) -> str:
    """Check a temporal audit against the closed-form three-leg losses."""
    _expect(report.get("kind") == "temporal-audit", "report kind")
    qs, masses, conds = facts["qs"], facts["masses"], facts["conds"]
    expected = [(q, c, c - q) for q, c in zip(qs, conds) if c != q]
    got = [(Fraction(v["q"]), Fraction(v["conditional"]), Fraction(v["gap"]))
           for v in report["violations"]]
    _expect(got == expected, "reflection violations")

    book = None
    if expected:
        q, _, gap = expected[0]
        book = ("Q", masses[qs.index(q)], gap)
    strategy = facts.get("strategy")
    if strategy is not None:
        got = report.get("strategy") or {}
        _expect(Fraction(got.get("declared", "-1")) == strategy["declared"]
                and Fraction(got.get("forced", "-1")) == strategy["forced"],
                "strategy declared/forced values")
        if book is None and strategy["forced"] != strategy["declared"]:
            book = ("D", strategy["mass"],
                    strategy["forced"] - strategy["declared"])
    else:
        _expect("strategy" not in report, "unexpected strategy block")

    if book is None:
        _expect(report["verdict"] == "coherent" and code == 0,
                "coherent model not reported coherent")
        _expect(report["portfolio"] is None and report["losses"] is None,
                "coherent model carries a portfolio")
        return "coherent"
    _expect(report["verdict"] == "incoherent" and code == 2,
            "incoherent model not reported incoherent")
    label, mass, gap = book
    d = abs(gap)
    want = {}
    for cond in (True, False):
        loss = -(mass + 1) * d / 2 if cond else -mass * d / 2
        for e in (True, False):
            want[f"{'' if cond else '~'}{label}&{'' if e else '~'}E"] = loss
    got = {k: Fraction(v) for k, v in report["losses"].items()}
    _expect(got == want, "branch losses differ from the closed form")
    _expect(len(report["portfolio"]) == 3, "three-leg book")
    return "incoherent"


def _matrix(pairs) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in pairs])
    dim = int(round(len(flat) ** 0.5))
    return flat.reshape(dim, dim)


def quantum(report: dict, code: int, doc: dict, reconstructed) -> str:
    """Check a two-time scenario report and the state rebuilt from it."""
    _expect(report.get("kind") == "quantum-demo" and code == 0, "report kind")
    rho = _matrix(doc["rho0"])
    kraus = [[_matrix(k) for k in ks] for ks in doc["instrument"]]
    effects = [_matrix(e) for e in doc["povm"]]
    images = [sum(k @ rho @ k.conj().T for k in ks) for ks in kraus]
    decohered = sum(images)

    def close(got, want, what, tol=FLOAT_TOL):
        got, want = np.asarray(got), np.asarray(want)
        _expect(got.shape == want.shape and np.abs(got - want).max() <= tol,
                what)

    close(report["first_probs"], [im.trace().real for im in images],
          "first-measurement probabilities")
    close(report["reflection"],
          [(e @ decohered).trace().real for e in effects], "reflection")
    close(_matrix(report["decohered"]), decohered, "decohered state")
    close(report["crosscheck"], report["reflection"],
          "cross-check differs from reflection", ALG_TOL)
    close(reconstructed, decohered, "reconstructed state")
    return "coherent"


def polarization(report: dict, code: int, n: int, bits: str) -> str:
    """Check the pi-bits scenario against independently computed digits."""
    zeros = bits.count("0")
    _expect(report.get("kind") == "polarization-demo" and code == 0,
            "report kind")
    _expect((report["n"], report["zeros"], report["ones"])
            == (n, zeros, n - zeros), "bit counts")
    want = (zeros + 1) / (n + 2)
    _expect(abs(report["conditioning_next_zero"] - want) <= 1e-12 * want,
            "conditioning predictive")
    _expect(report["maverick_q"] == 0.99, "maverick value")
    _expect(report["conditioning_coherent"] and report["maverick_coherent"],
            "coherence flags")
    return "coherent"
