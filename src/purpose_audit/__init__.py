"""Audit engine deciding whether logged behavior fits planning for a purpose.

Models are finite discounted MDPs with a distinguished do-nothing action; a
purpose is a reward table over the shared transition structure. The audit
decides, exactly, whether any non-redundant optimal plan for the purpose could
have produced a logged behavior, and lifts that bit to policy verdicts for
only-for and not-for rules.
"""

from .auditing import (
    AuditOutcome,
    AuditReason,
    FixParameters,
    PolicyRule,
    RuleKind,
    Verdict,
    VerdictStatus,
    audit,
    audit_batch,
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
    IndeterminateComparison,
    ModelError,
    NothingActionConflict,
    ParseError,
    PurposeAuditError,
    SizeCapExceeded,
    StrategyError,
    UndefinedPair,
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
    validate_strategy,
)
from .modelfile import format_log, format_model_document, parse_log, parse_model
from .nonredundancy import (
    Precedence,
    opt_star_enumerate,
    precedes,
    replace_useless_with_nothing,
    useless_pairs,
)
from .oracle import (
    OracleOptions,
    enumerate_strategies,
    oracle_audit,
    oracle_opt,
    oracle_useless,
)
from .solve import (
    OptimalSolution,
    bellman_residual,
    evaluate_strategy,
    is_optimal,
    q_value,
    solve_optimal,
)
from .traces import (
    ExecutionPrefix,
    SampledContingency,
    StationaryContingency,
    Termination,
    active_prefix,
    is_proper_subexecution,
    simulate,
)

__version__ = "0.1.0"
