"""Audit engine deciding whether logged behavior fits planning for a purpose.

Models are finite discounted MDPs with a distinguished do-nothing action; a
purpose is a reward table over the shared transition structure. The audit
decides, exactly, whether any non-redundant optimal plan for the purpose could
have produced a logged behavior, and lifts that bit to policy verdicts for
only-for and not-for rules.

This package re-exports the engine: parsing, validation, the solver and the
audit. The reference layer that cross-checks it, the brute-force oracle and
the definition of non-redundancy, is imported by module path
(``purpose_audit.oracle``, ``.nonredundancy``, ``.traces``) and is loaded
only by those imports and by ``purpose-audit oracle``.
"""

from .auditing import (
    AuditOutcome,
    AuditReason,
    PolicyRule,
    RuleKind,
    Verdict,
    VerdictStatus,
    audit,
    check,
    check_prohibitive,
    check_restrictive,
    compute_fix,
    compute_omega,
    triage,
)
from .errors import (
    AlternationError,
    BehaviorError,
    ConvergenceError,
    DiscountError,
    DistributionError,
    DomainMismatch,
    InconsistentBehavior,
    ModelError,
    NothingActionConflict,
    ParseError,
    PurposeAuditError,
    SizeCapExceeded,
    StrategyError,
)
from .model import (
    NOTHING,
    Behavior,
    EnvironmentModel,
    Strategy,
    as_rational,
    observed_choices,
    validate_behavior,
    validate_model,
)
from .modelfile import parse_log, parse_model
from .solve import (
    OptimalSolution,
    evaluate_strategy,
    solve_optimal,
)

__version__ = "0.1.0"
