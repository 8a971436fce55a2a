"""Exact integer combinatorics that the extension engine calls.

Binomial coefficients and the exact test of the extension bound. Everything
here is arbitrary-precision integer arithmetic; there is no floating point
anywhere in this module. Counts are plain Python ints.
"""
from __future__ import annotations

from math import comb


def binom(a: int, b: int) -> int:
    """C(a, b) with the summation convention: 0 when b < 0 or b > a.

    ``a`` must be nonnegative.
    """
    if a < 0:
        raise ValueError(f"binom: a must be nonnegative, got {a}")
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def bound_holds(n: int, m: int, h: int) -> bool:
    """Exact test of the extension bound n > (m-1)/(1 - 2^(1/(1-h))) + h - 1.

    The threshold is irrational, so the test is evaluated as the equivalent
    integer inequality

        2 * (n - m - h + 2)^(h-1) > (n - h + 1)^(h-1)

    with n - m - h + 2 > 0 required (move terms, divide by n - h + 1 > 0,
    raise both positive sides to the power h - 1). Requires m >= h >= 2 and
    n >= m.
    """
    if not (m >= h >= 2 and n >= m):
        raise ValueError(f"bound_holds: need m >= h >= 2 and n >= m, got {(n, m, h)}")
    lhs_base = n - m - h + 2
    if lhs_base <= 0:
        return False
    return 2 * lhs_base ** (h - 1) > (n - h + 1) ** (h - 1)
