"""Extend partial r-factorizations of lambda K_m^h to lambda K_n^h.

The engine amalgamates the n - m missing vertices into one placeholder,
greedily colors the new edge classes level by level under the target degree
caps, then detaches the new vertices one at a time, each step solved as an
exact integral transportation problem. An independent verifier checks the
results.
"""
from .combinatorics import binom, bound_holds
from .errors import (
    BadArgument,
    BelowBound,
    GenerationFailed,
    GreedyStuck,
    HyperfactorError,
    InadmissibleParameters,
    InternalInvariantViolation,
    InvalidInstance,
    NegativeTopLevelQuota,
    SchemaError,
    TooLarge,
)
from .model import (
    Certificate,
    EdgeClass,
    Instance,
    Parameters,
    is_admissible,
    parse_certificate,
    parse_instance,
    require_admissible,
    serialize_certificate,
    serialize_instance,
    validate_instance,
)
from .generate import random_instance
from .pipeline import extend_instance, single_edge_instance
from .verify import verify_certificate

__version__ = "0.1.0"

__all__ = [
    "binom", "bound_holds",
    "Parameters", "EdgeClass", "Instance", "Certificate",
    "is_admissible", "require_admissible", "validate_instance",
    "parse_instance", "serialize_instance", "parse_certificate", "serialize_certificate",
    "random_instance", "extend_instance", "single_edge_instance",
    "verify_certificate",
    "HyperfactorError", "SchemaError", "InadmissibleParameters", "InvalidInstance",
    "GreedyStuck", "NegativeTopLevelQuota",
    "InternalInvariantViolation", "GenerationFailed",
    "TooLarge", "BelowBound", "BadArgument",
    "__version__",
]
