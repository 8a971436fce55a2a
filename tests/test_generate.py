"""Unit tests for the seeded instance generator."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from hyperfactor.combinatorics import binom
from hyperfactor.errors import GenerationFailed, InadmissibleParameters
from hyperfactor import generate
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
        assert report.ok, report.failures[:2]

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

    def test_backtracking_fallback(self, monkeypatch):
        # Every one of the seeded greedy passes dead-ends on this cell and seed.
        calls = []
        real = generate._backtrack_coloring

        def spy(params, rng):
            calls.append(params)
            return real(params, rng)

        monkeypatch.setattr(generate, "_backtrack_coloring", spy)
        params = Parameters(n=8, m=7, h=2, lam=1, r=(1,) * 7)
        inst = random_instance(params, seed=2)
        assert calls == [params]
        assert validate_instance(inst).ok

    def test_backtracking_undoes_dead_ends(self, monkeypatch):
        # With no greedy pass, seed 0 goes straight to the search, which backs
        # out of dozens of choices on this tight cell before it succeeds.
        monkeypatch.setattr(generate, "_MAX_RESTARTS", 0)
        inst = random_instance(Parameters(n=8, m=7, h=2, lam=1, r=(1,) * 7), seed=0)
        assert validate_instance(inst).ok

    def test_exhausted_search_returns_none(self):
        # K_3 cannot hold its three pairwise-meeting copies in one color of cap 1.
        params = Parameters(n=4, m=3, h=2, lam=1, r=(1,))
        assert generate._backtrack_coloring(params, random.Random(0)) is None

    def test_spent_node_budget_raises(self, monkeypatch):
        monkeypatch.setattr(generate, "_MAX_RESTARTS", 0)
        monkeypatch.setattr(generate, "_NODE_BUDGET", 1)
        with pytest.raises(GenerationFailed, match="after 0 restarts"):
            random_instance(Parameters(n=8, m=7, h=2, lam=1, r=(1,) * 7), seed=0)

    def test_deep_search_runs_without_recursion(self, monkeypatch):
        # 1 176 copies: a search that recursed once per copy would outgrow the
        # interpreter's stack long before this budget is spent.
        monkeypatch.setattr(generate, "_MAX_RESTARTS", 0)
        monkeypatch.setattr(generate, "_NODE_BUDGET", 2_000)
        with pytest.raises(GenerationFailed, match="after 0 restarts"):
            random_instance(Parameters(n=50, m=49, h=2, lam=1, r=(1,) * 49), seed=0)
