"""Exception types shared across the pipeline; the CLI's one exit-code table.

Each error carries ``exit_code``, the code ``hyperfactor`` exits with when the
error ends a command, and ``outcome``, the string a sweep cell records for it.
"""
from __future__ import annotations


class HyperfactorError(Exception):
    """Base class for all package-specific errors."""
    exit_code, outcome = 6, "error"


class SchemaError(HyperfactorError):
    """An input document or file is malformed, unreadable or breaks the schema.

    Carries a dotted location path (e.g. ``edges[3].support[0]``) so the
    offending field can be found without re-parsing.
    """
    exit_code = 4

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.location = location
        self.reason = message


class InadmissibleParameters(HyperfactorError):
    """The divisibility / degree-sum conditions fail for these parameters."""
    exit_code, outcome = 2, "inadmissible"


class TooLarge(HyperfactorError):
    """The state of these parameters could outgrow memory (see ``model.check_size``)."""
    exit_code, outcome = 2, "too_large"


class BadArgument(HyperfactorError):
    """A command-line value is malformed; exits like an argparse error."""
    exit_code = 2


class BelowBound(HyperfactorError):
    """n is below the extension bound and --force was not given."""
    exit_code, outcome = 3, "below_bound"


class InvalidInstance(HyperfactorError):
    """An input coloring failed validation; the report explains why."""
    exit_code = 4

    def __init__(self, report):
        issues = "; ".join(f"{i.kind}: {i.detail}" for i in report.issues[:3])
        super().__init__(f"invalid instance: {issues}")
        self.report = report


class GreedyStuck(HyperfactorError):
    """No color has residual capacity for some edge during level coloring.

    Cannot happen above the extension bound; below it (forced mode) it is an
    accepted best-effort outcome.
    """
    exit_code, outcome = 5, "greedy_stuck"

    def __init__(self, support, level: int):
        super().__init__(f"no feasible color for edge {set(support)} at level {level}")
        self.support = tuple(support)
        self.level = level


class NegativeTopLevelQuota(HyperfactorError):
    """A color's quota of all-new-vertex edges came out negative.

    Above the bound this is a bug; below the bound (forced mode) it is the
    step-2 analogue of :class:`GreedyStuck`.
    """
    exit_code, outcome = 5, "negative_quota"

    def __init__(self, color: int, value: int):
        super().__init__(f"color {color} needs {value} all-new edges")
        self.color = color
        self.value = value


class InfeasibleTransport(HyperfactorError):
    """A detachment transportation problem has no integral solution.

    Mathematically impossible when the state invariants hold, so this is a
    fatal internal error; the problem is attached for diagnosis.
    """
    outcome = "infeasible"

    def __init__(self, message: str, problem=None):
        super().__init__(message)
        self.problem = problem


class InternalInvariantViolation(HyperfactorError):
    """A pipeline invariant failed; indicates a bug, not a bad input."""


class GenerationFailed(HyperfactorError):
    """The random instance generator exhausted its retry budget."""
    exit_code, outcome = 1, "gen_failed"
