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
    """An input coloring failed validation; the message names the report's first three failures."""
    exit_code = 4

    def __init__(self, report):
        super().__init__("invalid instance: " + "; ".join(
            f"{f['kind']}: {f['detail']}" for f in report.failures[:3]))


class GreedyStuck(HyperfactorError):
    """No color has residual capacity for some edge during level coloring.

    Cannot happen above the extension bound: there ``extend_instance`` raises
    it as InternalInvariantViolation (exit 6). Below it (forced mode) it is an
    accepted best-effort outcome.
    """
    exit_code, outcome = 5, "greedy_stuck"

    def __init__(self, support, level: int):
        super().__init__(f"no feasible color for edge {set(support)} at level {level}")
        self.support = tuple(support)
        self.level = level


class NegativeTopLevelQuota(HyperfactorError):
    """A color's quota of all-new-vertex edges came out negative.

    Above the bound this is a bug, which ``extend_instance`` raises as
    InternalInvariantViolation (exit 6); below the bound (forced mode) it is
    the step-2 analogue of :class:`GreedyStuck`.
    """
    exit_code, outcome = 5, "negative_quota"

    def __init__(self, color: int, value: int):
        super().__init__(f"color {color} needs {value} all-new edges")


class InternalInvariantViolation(HyperfactorError):
    """A pipeline invariant failed; indicates a bug, not a bad input.

    A detachment transport that falls short is one: the state invariants
    make it feasible, so its message names the max flow and the short row.
    """


class GenerationFailed(HyperfactorError):
    """The random instance generator exhausted its retry budget."""
    exit_code, outcome = 1, "gen_failed"
