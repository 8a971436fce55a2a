"""Unit tests for the exact combinatorics layer."""
from __future__ import annotations

from decimal import Decimal, getcontext
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from hyperfactor.combinatorics import binom, bound_holds

from oracles import blocked_degree_bound, outside_majority_holds, vandermonde_sum


@lru_cache(maxsize=None)
def pascal_binom(a: int, b: int) -> int:
    """Independent big-integer oracle via the Pascal recurrence."""
    if b < 0 or b > a:
        return 0
    if b == 0 or b == a:
        return 1
    return pascal_binom(a - 1, b - 1) + pascal_binom(a - 1, b)


def closed_form_threshold(m: int, h: int) -> Decimal:
    """(m-1) / (1 - 2^(1/(1-h))) + h - 1 at 50 digits."""
    getcontext().prec = 50
    power = (Decimal(1) / (1 - h)) * Decimal(2).ln()
    return Decimal(m - 1) / (1 - power.exp()) + h - 1


class TestBinom:
    def test_direct_values(self):
        assert binom(5, 2) == 10
        assert binom(3, 5) == 0
        assert binom(0, 0) == 1
        assert binom(7, -1) == 0

    def test_big_value_against_pascal_oracle(self):
        expected = pascal_binom(49, 6)
        assert expected == 13983816
        assert binom(49, 6) == expected

    def test_negative_a_rejected(self):
        with pytest.raises(ValueError):
            binom(-1, 0)

    @given(st.integers(0, 80), st.integers(-5, 85))
    def test_matches_pascal_oracle(self, a, b):
        assert binom(a, b) == pascal_binom(a, b)

    def test_pascal_identity_grid(self):
        for a in range(1, 61):
            for b in range(1, a + 1):
                assert binom(a, b) == binom(a - 1, b - 1) + binom(a - 1, b)


class TestVandermondeSum:
    def test_examples(self):
        assert vandermonde_sum(5, 3, 3) == 10 == binom(5, 3)
        assert vandermonde_sum(8, 4, 2) == 28 == binom(8, 2)

    def test_m_equals_n_collapses(self):
        for n in range(1, 12):
            for h in range(1, n + 1):
                assert vandermonde_sum(n, n, h) == binom(n, h)

    def test_identity_grid(self):
        for n in range(1, 31):
            for m in range(1, n + 1):
                for h in range(1, m + 1):
                    assert vandermonde_sum(n, m, h) == binom(n, h)

    def test_precondition(self):
        with pytest.raises(ValueError):
            vandermonde_sum(3, 4, 2)


class TestBoundHolds:
    def test_h2_threshold(self):
        # closed form gives n > 2m - 1 for h = 2
        assert bound_holds(4, 2, 2) is True
        assert bound_holds(3, 2, 2) is False

    def test_h3_threshold(self):
        # closed form threshold for m=4 is ~12.2426, for m=3 is ~8.8284
        assert bound_holds(13, 4, 3) is True
        assert bound_holds(12, 4, 3) is False
        assert bound_holds(9, 3, 3) is True

    def test_agrees_with_high_precision_closed_form(self):
        for h in range(2, 8):
            for m in range(h, 16):
                threshold = closed_form_threshold(m, h)
                for n in range(m, int(threshold) + 8):
                    assert bound_holds(n, m, h) == (Decimal(n) > threshold), (n, m, h)

    def test_monotone_in_n(self):
        for h in range(2, 8):
            for m in range(h, 16):
                previous = False
                for n in range(m, 4 * m + 8):
                    current = bound_holds(n, m, h)
                    assert not (previous and not current), (n, m, h)
                    previous = current

    def test_precondition(self):
        with pytest.raises(ValueError):
            bound_holds(5, 2, 1)


class TestOutsideMajority:
    def test_examples(self):
        assert outside_majority_holds(4, 2, 2) is True    # 2*C(2,1)=4 > C(3,1)=3
        assert outside_majority_holds(3, 2, 2) is False   # 2*C(1,1)=2 > C(2,1)=2 fails
        assert outside_majority_holds(13, 4, 3) is True   # 72 > 66

    def test_implied_by_bound(self):
        for h in range(2, 8):
            for m in range(h, 16):
                for n in range(m, 4 * m + 8):
                    if bound_holds(n, m, h):
                        assert outside_majority_holds(n, m, h), (n, m, h)


class TestBlockedDegreeBound:
    def test_top_level_is_zero(self):
        for h in range(2, 7):
            for m in range(h, 10):
                assert blocked_degree_bound(2 * m + h, m, h, h) == 0

    def test_equality_at_second_highest_level(self):
        for n in range(2, 31):
            for m in range(2, n + 1):
                for h in range(2, m + 1):
                    assert blocked_degree_bound(n, m, h, h - 1) == binom(n - 1, h - 1)

    def test_example_value(self):
        # 2 * (C(3,2) + C(9,1)*C(3,1)) = 60, strictly below C(12,2) = 66
        assert blocked_degree_bound(13, 4, 3, 1) == 60
        assert blocked_degree_bound(13, 4, 3, 1) < binom(12, 2)
        assert blocked_degree_bound(9, 3, 3, 2) == 28 == binom(8, 2)

    def test_strict_below_degree_count_above_bound(self):
        from itertools import count
        for h in range(2, 8):
            for m in range(h, 16):
                first = next(n for n in count(m) if bound_holds(n, m, h))
                for n in range(first, first + 11):
                    for level in range(1, h - 1):
                        assert blocked_degree_bound(n, m, h, level) < binom(n - 1, h - 1), \
                            (n, m, h, level)
