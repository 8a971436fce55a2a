"""Unit tests for the seeded instance generator."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from hyperfactor.combinatorics import binom
from hyperfactor.errors import InadmissibleParameters
from hyperfactor.generate import random_instance
from hyperfactor.model import Parameters, is_admissible, serialize_instance, validate_instance


class TestRandomInstance:
    def test_same_seed_same_instance(self):
        params = Parameters(n=9, m=3, h=3, lam=1, r=(1,) * 28)
        a = serialize_instance(random_instance(params, seed=42))
        b = serialize_instance(random_instance(params, seed=42))
        c = serialize_instance(random_instance(params, seed=43))
        assert a == b
        assert a != c

    def test_slack_cell_always_feasible(self):
        # m=4, h=3, 91 colors, caps 1: at most C(3,2)=3 colors blocked per copy
        params = Parameters(n=15, m=4, h=3, lam=1, r=(1,) * 91)
        for seed in range(5):
            inst = random_instance(params, seed=seed)
            assert validate_instance(inst).ok
            assert sum(c.total() for c in inst.coloring) == binom(4, 3)

    def test_doubled_mixed_r_instance_valid(self):
        params = Parameters(n=6, m=3, h=2, lam=2, r=(2, 2, 2, 2, 2))
        inst = random_instance(params, seed=1)
        report = validate_instance(inst)
        assert report.ok, report.issues[:2]

    def test_rejects_inadmissible(self):
        with pytest.raises(InadmissibleParameters):
            random_instance(Parameters(n=5, m=2, h=2, lam=1, r=(1,) * 4), seed=0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_generator_output_always_validates(self, seed):
        params = Parameters(n=8, m=3, h=2, lam=1, r=(2, 2, 1, 1, 1))
        assert is_admissible(params)
        inst = random_instance(params, seed=seed)
        assert validate_instance(inst).ok

    def test_tight_caps_still_generate(self):
        # k=2 colors with large caps: restart/backtrack paths keep it valid
        params = Parameters(n=7, m=5, h=3, lam=1, r=(6, 9))
        assert is_admissible(params)
        for seed in range(5):
            inst = random_instance(params, seed=seed)
            assert validate_instance(inst).ok
