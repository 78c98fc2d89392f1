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
use.  A witness or a joint is read as its pmf over the atoms; event
probabilities and Boolean event algebra are left to callers.

The package needs only the standard library.  The quantum module's names
are resolved on first access (PEP 562), so `import dutchbook` and the
exact-arithmetic audits never pay to compile and load it.
"""

from .beliefs import BeliefState, Event, OutcomeSpace, as_fraction
from .diachronic import (
    ConditioningResult,
    ReflectionResult,
    StrategyNotAdoptedError,
    TemporalModel,
    Violation,
    conditioning_strategy_check,
    reflection_check,
)
from .exchangeable import (
    MAX_PI_BITS,
    BitString,
    ScenarioReport,
    pi_fractional_bits,
    predictive_next,
    scenario_report,
)
from .formats import (
    AuditDocument,
    AuditFileError,
    QuantumScenario,
    load_audit_file,
    load_quantum_file,
    parse_audit_document,
    parse_quantum_scenario,
    render_structured,
)
from .synchronic import (
    Assessment,
    CoherenceResult,
    Portfolio,
    PortfolioLeg,
    PriceBook,
    check_coherence,
    settle,
)

__version__ = "0.1.0"

_QUANTUM_NAMES = (
    "DensityOperator", "Instrument", "Povm", "QuantumError",
    "DimensionMismatchError", "NotTracePreservingError",
    "ZeroProbabilityOutcomeError", "TinyProbabilityOutcomeError",
    "NotInformationallyCompleteError", "InconsistentProbabilitiesError",
    "first_outcome_probs", "post_state", "outcome_probs", "reflection_prob",
    "decohered_state", "is_informationally_complete", "reconstruct_state",
)

__all__ = [
    "__version__",
    # beliefs
    "OutcomeSpace", "Event", "BeliefState", "as_fraction",
    # synchronic
    "Assessment", "PriceBook", "Portfolio", "PortfolioLeg",
    "CoherenceResult", "check_coherence", "settle",
    # diachronic
    "TemporalModel", "Violation", "ReflectionResult", "ConditioningResult",
    "StrategyNotAdoptedError", "reflection_check",
    "conditioning_strategy_check",
    # exchangeable
    "BitString", "ScenarioReport", "MAX_PI_BITS", "predictive_next",
    "pi_fractional_bits", "scenario_report",
    # quantum, loaded on first access
    *_QUANTUM_NAMES,
    # formats
    "AuditDocument", "AuditFileError", "QuantumScenario",
    "load_audit_file", "load_quantum_file", "parse_audit_document",
    "parse_quantum_scenario", "render_structured",
]


def __getattr__(name: str):
    if name in _QUANTUM_NAMES:
        from . import quantum
        return getattr(quantum, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
