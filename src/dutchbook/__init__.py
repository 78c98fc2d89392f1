"""Dutch-book coherence audits, sure-loss portfolio construction, and the
two-time quantum measurement scenario.

Synchronic and diachronic (temporal) probability assignments are checked
for coherence in exact rational arithmetic; incoherent assignments come
back with an explicit portfolio of transactions losing money in every
possible world.  The exchangeable-prior and quantum modules carry the two
worked scenarios: betting on the bits of pi, and reading a "decohered"
predictive state off the reflection principle.
"""

from .beliefs import (
    BeliefState,
    Event,
    OutcomeSpace,
    SpaceMismatchError,
    UndefinedConditionalError,
    as_fraction,
)
from .diachronic import (
    ConditioningResult,
    NoViolationError,
    PositivityError,
    ReflectionViolationError,
    StrategyNotAdoptedError,
    TemporalModel,
    UndefinedUpdateError,
    Violation,
    build_reflection_dutch_book,
    conditioning_strategy_check,
    goldstein_expectation,
    jeffrey_update,
    reflection_check,
)
from .exchangeable import (
    MAX_PI_BITS,
    BetaComponent,
    BitString,
    MixingDensity,
    ScenarioReport,
    pi_fractional_bits,
    posterior,
    predictive_next,
    prior_predictive,
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
from .quantum import (
    DensityOperator,
    DimensionMismatchError,
    InconsistentProbabilitiesError,
    Instrument,
    NotInformationallyCompleteError,
    NotTracePreservingError,
    Povm,
    ProjectorFamilyError,
    QuantumError,
    ZeroProbabilityOutcomeError,
    decohered_state,
    first_outcome_probs,
    is_informationally_complete,
    lueders_decohere,
    lueders_instrument,
    outcome_probs,
    post_state,
    reconstruct_state,
    reflection_prob,
    tetrahedron_povm,
)
from .synchronic import (
    Assessment,
    CoherenceResult,
    CoherentBookError,
    FarkasCertificate,
    Portfolio,
    PortfolioLeg,
    PriceBook,
    build_dutch_book,
    check_coherence,
    settle,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # beliefs
    "OutcomeSpace", "Event", "BeliefState", "as_fraction",
    "SpaceMismatchError", "UndefinedConditionalError",
    # synchronic
    "Assessment", "PriceBook", "Portfolio", "PortfolioLeg",
    "FarkasCertificate", "CoherenceResult", "CoherentBookError",
    "check_coherence", "build_dutch_book", "settle",
    # diachronic
    "TemporalModel", "Violation", "ConditioningResult", "PositivityError",
    "NoViolationError", "ReflectionViolationError", "StrategyNotAdoptedError",
    "UndefinedUpdateError", "reflection_check", "goldstein_expectation",
    "build_reflection_dutch_book", "conditioning_strategy_check",
    "jeffrey_update",
    # exchangeable
    "MixingDensity", "BetaComponent", "BitString", "ScenarioReport",
    "MAX_PI_BITS", "prior_predictive", "posterior", "predictive_next",
    "pi_fractional_bits", "scenario_report",
    # quantum
    "DensityOperator", "Instrument", "Povm", "QuantumError",
    "DimensionMismatchError", "NotTracePreservingError",
    "ZeroProbabilityOutcomeError", "ProjectorFamilyError",
    "NotInformationallyCompleteError", "InconsistentProbabilitiesError",
    "first_outcome_probs", "post_state", "outcome_probs", "reflection_prob",
    "decohered_state", "lueders_instrument", "lueders_decohere",
    "is_informationally_complete", "reconstruct_state", "tetrahedron_povm",
    # formats
    "AuditDocument", "AuditFileError", "QuantumScenario",
    "load_audit_file", "load_quantum_file", "parse_audit_document",
    "parse_quantum_scenario", "render_structured",
]
