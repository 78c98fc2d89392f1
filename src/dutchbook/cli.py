"""Command-line front end.

Subcommands: `audit` (synchronic or temporal coherence audit of a file),
`demo-reflection` (the worked three-transaction sure loss), `demo-polarization`
(the bit-sequence betting comparison), `demo-quantum` (two-time measurement
scenario from a file).  Each function imports the modules it calls into
when it is called, so a subcommand compiles and loads only its own: each
module loaded costs every invocation a few milliseconds of start-up.

Exit codes are the only verdict channel: 0 for coherent/successful runs,
2 for detected incoherence, 1 for input errors.  Each handler returns its
exit code and one report; `--format` selects the human-readable text,
rendered from the report by its `kind`, or the canonical structured
report; `--report` writes the structured report to a file regardless of
the console format.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING

from .formats import (
    AuditFileError,
    load_audit_file,
    load_quantum_file,
    render_structured,
)

if TYPE_CHECKING:
    from .beliefs import OutcomeSpace
    from .diachronic import TemporalModel
    from .synchronic import Assessment, Portfolio, PriceBook

__all__ = ["main"]

OK, INCOHERENT, INPUT_ERROR = 0, 2, 1


class _FloatWord:
    # Stands in for argparse's negative-number pattern, which decides
    # whether a word starting with "-" is a value or an option.  That
    # pattern misses exponents and the non-finite words, so "--maverick
    # -1e3" was refused as a missing argument while "--maverick=-1e3" was
    # read.  Here a word is a value when float() reads it; no option of
    # this tool does.
    @staticmethod
    def match(word: str) -> bool:
        try:
            float(word)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _FloatWord

    # Input errors must exit 1; argparse's default error exit is 2, which
    # this tool reserves for detected incoherence.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("text", "structured"), default="text",
                   help="console output style (default: text)")
    p.add_argument("--report", metavar="OUT",
                   help="also write the structured report to this file")


# Built once per process: argparse keeps no state between parses, and
# building the five parsers costs more than a small audit.
@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="dutchbook",
                     description="Dutch-book coherence audits and demos.")
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser("audit", help="audit a price book or temporal model")
    audit.add_argument("file", help="audit document (JSON)")
    audit.add_argument("--temporal", action="store_true",
                       help="audit the temporal block instead of the price book")
    _add_output_flags(audit)

    refl = sub.add_parser("demo-reflection",
                          help="run the worked diachronic sure-loss example")
    _add_output_flags(refl)

    pol = sub.add_parser("demo-polarization",
                         help="conditioning vs maverick bet on the next bit")
    pol.add_argument("--n", type=int, default=None,
                     help="number of observed bits (default 4000)")
    pol.add_argument("--maverick", type=float, default=0.99,
                     help="the off-script next-bit value (default 0.99)")
    src = pol.add_mutually_exclusive_group()
    src.add_argument("--pi", action="store_true",
                     help="observe the binary expansion of pi (default)")
    src.add_argument("--bits", metavar="FILE",
                     help="observe ASCII 0/1 characters from a file")
    _add_output_flags(pol)

    quant = sub.add_parser("demo-quantum",
                           help="two-time measurement scenario from a file")
    quant.add_argument("file", help="scenario document (JSON)")
    _add_output_flags(quant)
    return parser


def _exact(value: Fraction) -> str:
    """`str(value)`, or an input error past Python's int-to-str digit limit.

    Prices within the input caps can still give a witness or a portfolio
    whose numerators and denominators are too long for `str` to print.
    """
    try:
        return str(value)
    except ValueError:
        raise AuditFileError(
            "an exact result has more digits than Python's int-to-str "
            "limit allows; it cannot be printed") from None


def _losses(portfolio: Portfolio) -> dict[str, str]:
    from .synchronic import settle

    return {label: _exact(net)
            for label, net in zip(portfolio.book.space.atoms, settle(portfolio))}


def _synchronic_audit(book: PriceBook) -> tuple[int, dict]:
    from .synchronic import check_coherence

    result = check_coherence(book)
    if result.coherent:
        return OK, {
            "kind": "synchronic-audit",
            "verdict": "coherent",
            "witness": {label: _exact(mass) for label, mass
                        in zip(book.space.atoms, result.witness)},
            "portfolio": None,
            "losses": None,
        }
    portfolio = result.portfolio
    legs = [
        {
            "assessment": leg.assessment,
            "description": _describe(book.space, book.assessments[leg.assessment]),
            "direction": "buy" if leg.quantity > 0 else "sell",
            "quantity": _exact(abs(leg.quantity)),
        }
        for leg in portfolio.legs
    ]
    return INCOHERENT, {
        "kind": "synchronic-audit",
        "verdict": "incoherent",
        "witness": None,
        "portfolio": legs,
        "losses": _losses(portfolio),
    }


def _describe(space: OutcomeSpace, a: Assessment) -> str:
    ev = "{" + ",".join(space.labels(a.event)) + "}"
    if a.condition is None:
        return f"P({ev}) = {a.price}"
    cond = "{" + ",".join(space.labels(a.condition)) + "}"
    return f"P({ev} | {cond}) = {a.price}"


def _branch_name(space: OutcomeSpace, event: frozenset[int]) -> str:
    # On a branch space ("Q&E", "Q&~E", ...) an event is named by the
    # conjunct all of its atoms share: {Q&E, ~Q&E} is "E".
    return set.intersection(*(set(a.split("&")) for a in space.labels(event))).pop()


def _portfolio_rows(portfolio: Portfolio) -> list[dict]:
    rows = []
    space = portfolio.book.space
    for leg in portfolio.legs:
        a = portfolio.book.assessments[leg.assessment]
        event, stake = _branch_name(space, a.event), _exact(abs(leg.quantity))
        price = _exact(abs(leg.quantity) * a.price)
        cond = _branch_name(space, a.condition) if a.condition is not None else None
        # A t_tau trade only happens once its condition is true, so its
        # ticket is shown plain and the condition becomes the trigger.
        trigger = f"if-{cond}-true" if leg.time == "t_tau" else "always"
        if cond is None or leg.time == "t_tau":
            ticket = f"pays ${stake} if {event}"
        else:
            ticket = (f"pays ${stake} if {cond} and {event}, "
                      f"refunds ${price} if not {cond}")
        rows.append({"time": leg.time, "trigger": trigger,
                     "direction": "buy" if leg.quantity > 0 else "sell",
                     "ticket": ticket, "price": price})
    return rows


def _temporal_audit(model: TemporalModel,
                    declared_q: Fraction | None) -> tuple[int, dict]:
    from .diachronic import (
        StrategyNotAdoptedError,
        conditioning_strategy_check,
        reflection_check,
    )

    reflection = reflection_check(model)
    strategy = None
    strategy_book = None
    if declared_q is not None:
        try:
            outcome = conditioning_strategy_check(model, declared_q)
        except StrategyNotAdoptedError as exc:
            raise AuditFileError(f"document.temporal.strategy: {exc}") from None
        strategy = {
            "on": "D",
            "declared": _exact(outcome.declared_q),
            "forced": _exact(outcome.forced_q),
        }
        strategy_book = outcome.portfolio

    portfolio = reflection.portfolio or strategy_book
    report = {
        "kind": "temporal-audit",
        "verdict": "incoherent" if portfolio else "coherent",
        "violations": [
            {"q": _exact(v.q), "conditional": _exact(v.conditional),
             "gap": _exact(v.gap)}
            for v in reflection.violations
        ],
        "portfolio": _portfolio_rows(portfolio) if portfolio else None,
        "losses": _losses(portfolio) if portfolio else None,
    }
    if strategy is not None:
        report["strategy"] = strategy
    return (INCOHERENT if portfolio else OK), report


def _cmd_audit(args) -> tuple[int, dict]:
    doc = load_audit_file(args.file)
    if args.temporal:
        if doc.temporal is None:
            raise AuditFileError(
                "document.temporal: missing, but --temporal was requested")
        return _temporal_audit(doc.temporal, doc.declared_q)
    if doc.book is None:
        raise AuditFileError(
            "document.assessments: missing; pass --temporal to audit the "
            "temporal block")
    return _synchronic_audit(doc.book)


# The worked reflection demo: announced future value 1/2 held with
# probability 2/5, while the time-zero conditional is 7/10; the rest of the
# mass sits on a companion value that satisfies reflection exactly.
_DEMO_MASS = Fraction(2, 5)
_DEMO_DECLARED = Fraction(1, 2)
_DEMO_CONDITIONAL = Fraction(7, 10)


def _cmd_demo_reflection(args) -> tuple[int, dict]:
    from .diachronic import TemporalModel

    model = TemporalModel.from_conditionals(
        qs=(_DEMO_DECLARED, Fraction(1, 4)),
        masses=(_DEMO_MASS, 1 - _DEMO_MASS),
        e_given_q=(_DEMO_CONDITIONAL, Fraction(1, 4)),
    )
    code, report = _temporal_audit(model, None)
    report["kind"] = "reflection-demo"
    return code, report


def _cmd_demo_polarization(args) -> tuple[int, dict]:
    from .exchangeable import BitString, pi_fractional_bits, scenario_report

    observed = None
    if args.bits:
        try:
            with open(args.bits, encoding="utf-8") as fh:
                observed = BitString.from_text(fh.read())
        except OSError as exc:
            raise AuditFileError(f"{args.bits}: {exc.strerror or exc}") from None
        except ValueError as exc:  # not UTF-8, or not a 0/1 character
            raise AuditFileError(f"{args.bits}: {exc}") from None
    try:
        if observed is None:
            n = args.n if args.n is not None else 4000
            observed = pi_fractional_bits(n)
        else:
            n = args.n if args.n is not None else observed.n
        result = scenario_report(n, observed, args.maverick)
    except ValueError as exc:
        raise AuditFileError(str(exc)) from None

    both_ok = result.conditioning_coherent and result.maverick_coherent
    return (OK if both_ok else INCOHERENT), {"kind": "polarization-demo",
                                             **result._asdict()}


def _cmd_demo_quantum(args) -> tuple[int, dict]:
    from .formats import matrix_to_pairs
    from .quantum import (
        QuantumError,
        ZeroProbabilityOutcomeError,
        decohered_state,
        first_outcome_probs,
        outcome_probs,
        post_state,
        reflection_prob,
    )

    sc = load_quantum_file(args.file)
    try:
        p0 = first_outcome_probs(sc.instrument, sc.rho0)
        posts = []
        posteriors = []
        for i in range(len(p0)):
            # An outcome of probability zero, or too small to normalize in
            # floating point, has no posterior; the rest of the report stands.
            try:
                rho_tau = post_state(sc.instrument, i, sc.rho0)
            except ZeroProbabilityOutcomeError:
                rho_tau = None
            posts.append(rho_tau)
            posteriors.append(None if rho_tau is None
                              else outcome_probs(sc.povm, rho_tau))
        refl = reflection_prob(sc.instrument, sc.povm, sc.rho0)
        direct = outcome_probs(sc.povm, sc.rho0)
        rho_dec = decohered_state(sc.instrument, sc.rho0)
        cross = outcome_probs(sc.povm, rho_dec)
    except QuantumError as exc:
        raise AuditFileError(str(exc)) from None

    return OK, {
        "kind": "quantum-demo",
        "dim": sc.rho0.dim,
        "first_probs": p0,
        "post_states": [None if r is None else matrix_to_pairs(r.matrix)
                        for r in posts],
        "posterior_probs": posteriors,
        "reflection": refl,
        "direct": direct,
        "decohered": matrix_to_pairs(rho_dec.matrix),
        "crosscheck": cross,
    }


# One text renderer per report kind; each reads nothing but its report
# (and, for the reflection demo, the demo's fixed setup).


def _synchronic_text(report: dict) -> list[str]:
    lines = [f"verdict: {report['verdict']}"]
    if report["witness"] is not None:
        lines.append("witness probability for each atom:")
        for label, mass in report["witness"].items():
            lines.append(f"  {label:<20} {mass}")
        return lines
    lines.append("sure-loss portfolio:")
    for leg in report["portfolio"]:
        lines.append(f"  {leg['direction']:<4} {leg['quantity']:>8} of "
                     f"{leg['description']}")
    lines.append("settlement by atom (negative = agent loss):")
    for label, amount in report["losses"].items():
        lines.append(f"  {label:<20} {amount}")
    return lines


def _portfolio_lines(report: dict) -> list[str]:
    lines = ["sure-loss portfolio:"]
    for row in report["portfolio"]:
        lines.append(f"  {row['time']:<6} {row['trigger']:<12} "
                     f"{row['direction']:<5} {row['ticket']:<46} "
                     f"price {row['price']}")
    lines.append("realized per branch (negative = agent loss):")
    for branch, amount in report["losses"].items():
        lines.append(f"  {branch:<8} {amount}")
    return lines


def _temporal_text(report: dict) -> list[str]:
    lines = [f"verdict: {report['verdict']}"]
    if report["violations"]:
        lines.append("reflection violations:")
        for v in report["violations"]:
            lines.append(f"  announced {v['q']}: time-zero conditional "
                         f"{v['conditional']}, gap {v['gap']}")
    else:
        lines.append("no reflection violations")
    strategy = report.get("strategy")
    if strategy is not None:
        lines.append(f"conditioning strategy on D: declared "
                     f"{strategy['declared']}, coherence forces "
                     f"{strategy['forced']}")
    if report["portfolio"]:
        lines.extend(_portfolio_lines(report))
    return lines


def _reflection_demo_text(report: dict) -> list[str]:
    return [
        f"setup: P0(Q) = {_DEMO_MASS} that tomorrow's value for E is "
        f"{_DEMO_DECLARED}; time-zero conditional P0(E|Q) = "
        f"{_DEMO_CONDITIONAL}",
        f"gap d = {report['violations'][0]['gap']}",
        *_portfolio_lines(report),
        "verdict: incoherent (sure loss on every branch)",
    ]


def _polarization_text(report: dict) -> list[str]:
    def verdict(coherent):
        return "coherent" if coherent else "incoherent"

    # The uniform-prior predictive (k+1)/(n+2), which the report carries
    # rounded to a float.
    exact = Fraction(report["zeros"] + 1, report["n"] + 2)
    return [
        f"observed {report['n']} bits: {report['zeros']} zeros, "
        f"{report['ones']} ones",
        "conditioning rule, next bit is 0: "
        f"{report['conditioning_next_zero']:.12g} (= {exact})",
        f"maverick value: {report['maverick_q']:.12g}",
        "synchronic audit at betting time: conditioning "
        f"{verdict(report['conditioning_coherent'])}, "
        f"maverick {verdict(report['maverick_coherent'])}",
    ]


def _quantum_text(report: dict) -> list[str]:
    # Loaded already: only `demo-quantum` makes this report.
    from .quantum import ZERO_PROB_TOL

    dim = report["dim"]

    def row(values):
        return "  ".join(f"{v:.10g}" for v in values)

    def matrix(pairs):
        return [
            "  [" + ", ".join(f"{re:+.6f}{im:+.6f}j"
                              for re, im in pairs[r:r + dim]) + "]"
            for r in range(0, len(pairs), dim)
        ]

    lines = [f"dimension: {dim}",
             f"first measurement P0(i): {row(report['first_probs'])}"]
    for i, (pairs, ptau) in enumerate(zip(report["post_states"],
                                          report["posterior_probs"])):
        if pairs is None:
            p = report["first_probs"][i]
            lines.append(f"outcome {i}: probability 0, no posterior state"
                         if p <= ZERO_PROB_TOL else
                         f"outcome {i}: probability {p:.10g}, too small for "
                         "a posterior state in floating point")
            continue
        lines.append(f"outcome {i}: posterior state")
        lines.extend(matrix(pairs))
        lines.append(f"  second measurement P_tau(j|{i}): {row(ptau)}")
    lines.append("reflection P0(j) for the second measurement: "
                 f"{row(report['reflection'])}")
    lines.append(f"same POVM with no first measurement: {row(report['direct'])}")
    lines.append("predictive (decohered) state:")
    lines.extend(matrix(report["decohered"]))
    lines.append(f"cross-check tr(E_j rho'_0): {row(report['crosscheck'])}")
    return lines


_TEXT = {
    "synchronic-audit": _synchronic_text,
    "temporal-audit": _temporal_text,
    "reflection-demo": _reflection_demo_text,
    "polarization-demo": _polarization_text,
    "quantum-demo": _quantum_text,
}


_HANDLERS = {
    "audit": _cmd_audit,
    "demo-reflection": _cmd_demo_reflection,
    "demo-polarization": _cmd_demo_polarization,
    "demo-quantum": _cmd_demo_quantum,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, report = _HANDLERS[args.command](args)
    except AuditFileError as exc:
        print(f"dutchbook: error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(render_structured(report))
        except OSError as exc:
            print(f"dutchbook: error: {args.report}: {exc.strerror or exc}",
                  file=sys.stderr)
            return INPUT_ERROR
    if args.format == "structured":
        sys.stdout.write(render_structured(report))
    else:
        sys.stdout.write("\n".join(_TEXT[report["kind"]](report)) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
