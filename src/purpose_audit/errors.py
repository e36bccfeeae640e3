"""Exception types shared across the package."""

from __future__ import annotations


class PurposeAuditError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(PurposeAuditError):
    """A model description violates a structural requirement."""


class DistributionError(ModelError):
    """A transition row is not a probability distribution (bad sum or negative entry)."""


class DiscountError(ModelError):
    """The discount factor is outside the open interval (0, 1)."""


class DomainMismatch(ModelError):
    """Reward and transition tables are defined on different (state, action) sets."""


class NothingActionConflict(ModelError):
    """A user-supplied nothing-action row is not a zero-reward self-loop."""


class StrategyError(PurposeAuditError):
    """A strategy is not a total map into actions available at each state."""


class BehaviorError(PurposeAuditError):
    """A logged behavior does not fit the model (unknown tokens, undefined or
    zero-probability steps)."""


class InconsistentBehavior(BehaviorError):
    """The same state was observed with two different actions, so no stationary
    strategy could have produced the behavior."""

    def __init__(self, state: str, first: str, second: str):
        super().__init__(
            f"state {state!r} observed with both {first!r} and {second!r}; "
            "no stationary strategy is consistent with this behavior"
        )
        self.state = state
        self.first = first
        self.second = second


class ConvergenceError(PurposeAuditError):
    """The iterative solver did not reach its residual target within the cap,
    or cannot run in floating point: the discount rounds to 1.0, or the
    values may leave the float range."""


class SizeCapExceeded(PurposeAuditError):
    """A brute-force enumeration would exceed its configured size cap."""


class ParseError(PurposeAuditError):
    """Malformed model or log text, annotated with a source position."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f"line {line}" if line else "input"
        if column:
            location += f", column {column}"
        super().__init__(f"{location}: {message}")
        self.message = message
        self.line = line
        self.column = column


class AlternationError(ParseError):
    """A log record does not alternate state, action, state, ... starting with a state."""
