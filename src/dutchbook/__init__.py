"""Dutch-book coherence audits, sure-loss portfolio construction, and the
two-time quantum measurement scenario.

Synchronic and diachronic (temporal) probability assignments are checked
for coherence in exact rational arithmetic; each audit returns, for an
incoherent assignment, an explicit portfolio of transactions losing money
in every possible world.  The exchangeable-prior and quantum modules
carry the two worked scenarios: betting on the bits of pi with the exact
uniform-prior predictive, and reading a "decohered" predictive state off
the reflection principle.

The public names are the ones the `dutchbook` command and its benchmark
use.  A witness is a pmf over the atoms, and a temporal joint is read as
its value-cell sums; event probabilities and Boolean event algebra are
left to callers.

The package needs only the standard library.  Every public name is
resolved from its submodule on first access (PEP 562), so `import
dutchbook` loads no submodule, and a command compiles and loads only the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it, imported on first access.
_SUBMODULE = {
    **dict.fromkeys(("OutcomeSpace", "as_fraction"), "beliefs"),
    **dict.fromkeys(("Assessment", "PriceBook", "Portfolio", "PortfolioLeg",
                     "CoherenceResult", "check_coherence", "settle"),
                    "synchronic"),
    **dict.fromkeys(("TemporalModel", "Violation", "ReflectionResult",
                     "ConditioningResult", "StrategyNotAdoptedError",
                     "reflection_check", "conditioning_strategy_check"),
                    "diachronic"),
    **dict.fromkeys(("BitString", "ScenarioReport", "MAX_PI_BITS",
                     "predictive_next", "pi_fractional_bits",
                     "scenario_report"), "exchangeable"),
    **dict.fromkeys((
        "DensityOperator", "Instrument", "Povm", "QuantumError",
        "DimensionMismatchError", "NotTracePreservingError",
        "ZeroProbabilityOutcomeError", "TinyProbabilityOutcomeError",
        "NotInformationallyCompleteError", "InconsistentProbabilitiesError",
        "first_outcome_probs", "post_state", "outcome_probs",
        "reflection_prob", "decohered_state", "reconstruct_state",
    ), "quantum"),
    **dict.fromkeys(("AuditDocument", "AuditFileError", "QuantumScenario",
                     "load_audit_file", "load_quantum_file",
                     "parse_audit_document", "parse_quantum_scenario",
                     "render_structured"), "formats"),
}

__all__ = ["__version__", *_SUBMODULE]


def __getattr__(name: str):
    if name in _SUBMODULE:
        module = importlib.import_module(f".{_SUBMODULE[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
