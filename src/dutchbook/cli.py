"""Command-line front end.

Subcommands: `audit` (synchronic or temporal coherence audit of a file),
`demo-reflection` (the worked three-transaction sure loss), `demo-polarization`
(the bit-sequence betting comparison), `demo-quantum` (two-time measurement
scenario from a file).

Exit codes are the only verdict channel: 0 for coherent/successful runs,
2 for detected incoherence, 1 for input errors.  `--format` selects the
human-readable text or the canonical structured report; `--report` writes
the structured report to a file regardless of the console format.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .beliefs import BeliefState, Event
from .diachronic import (
    StrategyNotAdoptedError,
    TemporalModel,
    build_reflection_dutch_book,
    conditioning_strategy_check,
    reflection_check,
)
from .exchangeable import BitString, pi_fractional_bits, scenario_report
from .formats import (
    AuditFileError,
    load_audit_file,
    load_quantum_file,
    matrix_to_pairs,
    render_structured,
)
from .quantum import (
    QuantumError,
    ZeroProbabilityOutcomeError,
    decohered_state,
    first_outcome_probs,
    outcome_probs,
    post_state,
    reflection_prob,
)
from .synchronic import (
    Portfolio,
    PriceBook,
    build_dutch_book,
    check_coherence,
    settle,
)

__all__ = ["main"]

OK, INCOHERENT, INPUT_ERROR = 0, 2, 1


class _Parser(argparse.ArgumentParser):
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


def _witness_rows(witness: BeliefState) -> dict[str, str]:
    return {label: str(mass)
            for label, mass in zip(witness.space.atoms, witness.pmf)}


def _losses(portfolio: Portfolio) -> dict[str, str]:
    return {label: str(settle(portfolio, label))
            for label in portfolio.book.space.atoms}


def _synchronic_audit(book: PriceBook) -> tuple[int, dict, str]:
    result = check_coherence(book)
    lines = []
    if result.coherent:
        report = {
            "kind": "synchronic-audit",
            "verdict": "coherent",
            "witness": _witness_rows(result.witness),
            "portfolio": None,
            "losses": None,
        }
        lines.append("verdict: coherent")
        lines.append("witness probability for each atom:")
        for label, mass in report["witness"].items():
            lines.append(f"  {label:<20} {mass}")
        return OK, report, "\n".join(lines) + "\n"

    portfolio = build_dutch_book(book, result.certificate)
    legs = [
        {
            "assessment": leg.assessment,
            "description": book.assessments[leg.assessment].describe(),
            "direction": leg.direction,
            "quantity": str(leg.quantity),
        }
        for leg in portfolio.legs
    ]
    losses = _losses(portfolio)
    report = {
        "kind": "synchronic-audit",
        "verdict": "incoherent",
        "witness": None,
        "portfolio": legs,
        "losses": losses,
    }
    lines.append("verdict: incoherent")
    lines.append("sure-loss portfolio:")
    for leg in legs:
        lines.append(f"  {leg['direction']:<4} {leg['quantity']:>8} of "
                     f"{leg['description']}")
    lines.append("settlement by atom (negative = agent loss):")
    for label, amount in losses.items():
        lines.append(f"  {label:<20} {amount}")
    return INCOHERENT, report, "\n".join(lines) + "\n"


def _branch_name(event: Event) -> str:
    # On a branch space ("Q&E", "Q&~E", ...) an event is named by the
    # conjunct all of its atoms share: {Q&E, ~Q&E} is "E".
    return set.intersection(*(set(a.split("&")) for a in event.labels())).pop()


def _portfolio_rows(portfolio: Portfolio) -> list[dict]:
    rows = []
    for leg in portfolio.legs:
        a = portfolio.book.assessments[leg.assessment]
        event, stake = _branch_name(a.event), leg.quantity
        cond = _branch_name(a.condition) if a.is_conditional else None
        # A t_tau trade only happens once its condition is true, so its
        # ticket is shown plain and the condition becomes the trigger.
        trigger = f"if-{cond}-true" if leg.time == "t_tau" else "always"
        if cond is None or leg.time == "t_tau":
            ticket = f"pays ${stake} if {event}"
        else:
            ticket = (f"pays ${stake} if {cond} and {event}, "
                      f"refunds ${stake * a.price} if not {cond}")
        rows.append({"time": leg.time, "trigger": trigger,
                     "direction": leg.direction, "ticket": ticket,
                     "price": str(stake * a.price)})
    return rows


def _portfolio_lines(rows: list[dict], losses: dict[str, str]) -> list[str]:
    lines = ["sure-loss portfolio:"]
    for row in rows:
        lines.append(f"  {row['time']:<6} {row['trigger']:<12} "
                     f"{row['direction']:<5} {row['ticket']:<46} "
                     f"price {row['price']}")
    lines.append("realized per branch (negative = agent loss):")
    for branch, amount in losses.items():
        lines.append(f"  {branch:<8} {amount}")
    return lines


def _temporal_audit(model: TemporalModel,
                    declared_q: Fraction | None) -> tuple[int, dict, str]:
    violations = reflection_check(model)
    strategy = None
    strategy_book = None
    if declared_q is not None:
        try:
            outcome = conditioning_strategy_check(model, declared_q)
        except StrategyNotAdoptedError as exc:
            raise AuditFileError(f"document.temporal.strategy: {exc}") from None
        strategy = {
            "on": "D",
            "declared": str(outcome.declared_q),
            "forced": str(outcome.forced_q),
        }
        strategy_book = outcome.portfolio

    portfolio = (build_reflection_dutch_book(model, violations[0].q)
                 if violations else strategy_book)
    rows = _portfolio_rows(portfolio) if portfolio else None
    losses = _losses(portfolio) if portfolio else None
    verdict = "incoherent" if portfolio else "coherent"
    report = {
        "kind": "temporal-audit",
        "verdict": verdict,
        "violations": [
            {"q": str(v.q), "conditional": str(v.conditional), "gap": str(v.gap)}
            for v in violations
        ],
        "portfolio": rows,
        "losses": losses,
    }
    if strategy is not None:
        report["strategy"] = strategy

    lines = [f"verdict: {verdict}"]
    if violations:
        lines.append("reflection violations:")
        for v in violations:
            lines.append(f"  announced {v.q}: time-zero conditional "
                         f"{v.conditional}, gap {v.gap}")
    else:
        lines.append("no reflection violations")
    if strategy is not None:
        lines.append(f"conditioning strategy on D: declared "
                     f"{strategy['declared']}, coherence forces "
                     f"{strategy['forced']}")
    if portfolio:
        lines.extend(_portfolio_lines(rows, losses))
    code = INCOHERENT if portfolio else OK
    return code, report, "\n".join(lines) + "\n"


def _cmd_audit(args) -> tuple[int, dict, str]:
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


def _cmd_demo_reflection(args) -> tuple[int, dict, str]:
    # Announced future value 1/2 held with probability 2/5, while the
    # time-zero conditional is 7/10; the rest of the mass sits on a
    # companion value that satisfies reflection exactly.
    mass = Fraction(2, 5)
    declared = Fraction(1, 2)
    conditional = Fraction(7, 10)
    model = TemporalModel.from_conditionals(
        qs=(declared, Fraction(1, 4)),
        masses=(mass, 1 - mass),
        e_given_q=(conditional, Fraction(1, 4)),
    )
    code, report, _ = _temporal_audit(model, None)
    report["kind"] = "reflection-demo"
    lines = [
        f"setup: P0(Q) = {mass} that tomorrow's value for E is {declared}; "
        f"time-zero conditional P0(E|Q) = {conditional}",
        f"gap d = {conditional - declared}",
    ]
    lines.extend(_portfolio_lines(report["portfolio"], report["losses"]))
    lines.append("verdict: incoherent (sure loss on every branch)")
    return code, report, "\n".join(lines) + "\n"


def _cmd_demo_polarization(args) -> tuple[int, dict, str]:
    try:
        if args.bits:
            with open(args.bits, encoding="utf-8") as fh:
                observed = BitString.from_text(fh.read())
            n = args.n if args.n is not None else observed.n
        else:
            n = args.n if args.n is not None else 4000
            observed = pi_fractional_bits(n)
        result = scenario_report(n, observed, args.maverick)
    except OSError as exc:
        raise AuditFileError(f"{args.bits}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise AuditFileError(str(exc)) from None

    report = {
        "kind": "polarization-demo",
        "n": result.n,
        "zeros": result.zeros,
        "ones": result.ones,
        "conditioning_next_zero": result.conditioning_next_zero,
        "maverick_q": result.maverick_q,
        "conditioning_coherent": result.conditioning_coherent,
        "maverick_coherent": result.maverick_coherent,
    }
    exact = Fraction(result.zeros + 1, result.n + 2)
    lines = [
        f"observed {result.n} bits: {result.zeros} zeros, {result.ones} ones",
        f"conditioning rule, next bit is 0: {result.conditioning_next_zero:.12g}"
        f" (= {exact})",
        f"maverick value: {result.maverick_q:.12g}",
        "synchronic audit at betting time: conditioning "
        f"{'coherent' if result.conditioning_coherent else 'incoherent'}, "
        f"maverick {'coherent' if result.maverick_coherent else 'incoherent'}",
    ]
    both_ok = result.conditioning_coherent and result.maverick_coherent
    return (OK if both_ok else INCOHERENT), report, "\n".join(lines) + "\n"


def _matrix_lines(matrix, indent: str = "  ") -> list[str]:
    lines = []
    for row in matrix:
        cells = ", ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row)
        lines.append(f"{indent}[{cells}]")
    return lines


def _cmd_demo_quantum(args) -> tuple[int, dict, str]:
    sc = load_quantum_file(args.file)
    p0 = first_outcome_probs(sc.instrument, sc.rho0)
    posts = []
    posteriors = []
    for i in range(len(p0)):
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

    report = {
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

    def row(values):
        return "  ".join(f"{v:.10g}" for v in values)

    lines = [f"dimension: {sc.rho0.dim}",
             f"first measurement P0(i): {row(p0)}"]
    for i, (rho_tau, ptau) in enumerate(zip(posts, posteriors)):
        if rho_tau is None:
            lines.append(f"outcome {i}: probability 0, no posterior state")
            continue
        lines.append(f"outcome {i}: posterior state")
        lines.extend(_matrix_lines(rho_tau.matrix))
        lines.append(f"  second measurement P_tau(j|{i}): {row(ptau)}")
    lines.append(f"reflection P0(j) for the second measurement: {row(refl)}")
    lines.append(f"same POVM with no first measurement: {row(direct)}")
    lines.append("predictive (decohered) state:")
    lines.extend(_matrix_lines(rho_dec.matrix))
    lines.append(f"cross-check tr(E_j rho'_0): {row(cross)}")
    return OK, report, "\n".join(lines) + "\n"


_HANDLERS = {
    "audit": _cmd_audit,
    "demo-reflection": _cmd_demo_reflection,
    "demo-polarization": _cmd_demo_polarization,
    "demo-quantum": _cmd_demo_quantum,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, report, text = _HANDLERS[args.command](args)
    except (AuditFileError, QuantumError) as exc:
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
    sys.stdout.write(render_structured(report) if args.format == "structured"
                     else text)
    return code


if __name__ == "__main__":
    sys.exit(main())
