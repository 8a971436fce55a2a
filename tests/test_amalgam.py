"""Unit tests for the amalgamation stage."""
from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hyperfactor.amalgam import (
    AmalgamState,
    DegreeTable,
    _color_class,
    assign_level_h,
    build_amalgam,
    finish_levels,
    greedy_color_level,
)
from hyperfactor.combinatorics import binom
from hyperfactor.errors import (
    GreedyStuck,
    InadmissibleParameters,
    InternalInvariantViolation,
    InvalidInstance,
)
from hyperfactor.generate import random_instance
from hyperfactor.model import EdgeClass, Parameters

from conftest import make_instance


def colored_state(inst, seed=None):
    state = build_amalgam(inst)
    rng = random.Random(seed) if seed is not None else None
    for level in range(1, inst.params.h):
        greedy_color_level(state, level, rng=rng)
    return state


class TestBuildAmalgam:
    def test_worked_example_classes(self, worked_instance):
        state = build_amalgam(worked_instance)
        assert state.weight == 2
        assert state.classes[((1,), 1)].uncolored == 2   # lambda * C(2,1)
        assert state.classes[((2,), 1)].uncolored == 2
        assert state.classes[((), 2)].uncolored == 1     # lambda * C(2,2)
        assert state.classes[((1, 2), 0)].colors == {0: 1}

    def test_new_copy_total_matches_vandermonde(self):
        params = Parameters(n=9, m=3, h=3, lam=1, r=(1,) * 28)
        inst = random_instance(params, seed=3)
        state = build_amalgam(inst)
        new_copies = sum(c.uncolored for c in state.classes.values())
        assert new_copies == binom(9, 3) - binom(3, 3) == 83

    def test_multiplicity_linear_in_lambda(self):
        single = build_amalgam(random_instance(
            Parameters(n=9, m=3, h=3, lam=1, r=(1,) * 28), seed=1))
        double = build_amalgam(random_instance(
            Parameters(n=9, m=3, h=3, lam=2, r=(1,) * 56), seed=1))
        for key, cls in single.classes.items():
            if key[1] >= 1:
                assert double.classes[key].uncolored == 2 * cls.uncolored

    def test_rejects_inadmissible(self):
        inst = make_instance(5, 2, 2, 1, (1, 1, 1, 1), {(1, 2): {1: 1}})
        with pytest.raises(InadmissibleParameters):
            build_amalgam(inst)

    def test_rejects_invalid_coloring(self, worked_instance):
        worked_instance.coloring[0].colors = {}
        with pytest.raises(InvalidInstance):
            build_amalgam(worked_instance)


def brute_force_level1_distributions(r=(1, 1, 1)):
    """All ways to color the four level-1 copies of the worked example.

    Copies: two of class ({1}, 1), two of class ({2}, 1). Returns the set of
    feasible color multisets per class under caps r and the input edge
    {1,2} colored 1.
    """
    feasible = set()
    for c1a, c1b, c2a, c2b in product(range(3), repeat=4):
        deg = {1: [1, 0, 0], 2: [1, 0, 0]}
        ok = True
        for v, j in ((1, c1a), (1, c1b), (2, c2a), (2, c2b)):
            deg[v][j] += 1
            if deg[v][j] > r[j]:
                ok = False
        if ok:
            feasible.add((tuple(sorted((c1a, c1b))), tuple(sorted((c2a, c2b)))))
    return feasible


class TestGreedyColorLevel:
    def test_worked_example_unique_distribution(self, worked_instance):
        # Independent enumeration: the only feasible split gives each class
        # one copy of color 2 and one of color 3.
        assert brute_force_level1_distributions() == {((1, 2), (1, 2))}
        state = colored_state(worked_instance)
        assert state.classes[((1,), 1)].colors == {1: 1, 2: 1}
        assert state.classes[((2,), 1)].colors == {1: 1, 2: 1}
        for v in (1, 2):
            assert state.degrees.ordinary[v] == [1, 1, 1]

    def test_lowest_color_first_with_slack(self):
        # uneven caps: copies fill color 1's residual before touching color 2
        inst = make_instance(4, 2, 2, 2, (3, 2, 1), {(1, 2): {1: 2}})
        state = build_amalgam(inst)
        greedy_color_level(state, 1)
        assert state.classes[((1,), 1)].colors == {0: 1, 1: 2, 2: 1}
        assert state.classes[((2,), 1)].colors == {0: 1, 1: 2, 2: 1}
        for v in (1, 2):
            assert state.degrees.ordinary[v] == [3, 2, 1]

    def test_caps_never_exceeded_during_seeded_runs(self):
        params = Parameters(n=9, m=3, h=3, lam=1, r=(1,) * 28)
        for seed in range(5):
            inst = random_instance(params, seed=seed)
            state = colored_state(inst, seed=seed)
            for v, row in state.degrees.ordinary.items():
                for j, d in enumerate(row):
                    assert d <= params.r[j]

    def test_level_discipline_enforced(self, worked_instance):
        params = Parameters(n=9, m=3, h=3, lam=1, r=(1,) * 28)
        state = build_amalgam(random_instance(params, seed=0))
        with pytest.raises(InternalInvariantViolation):
            greedy_color_level(state, 2)
        with pytest.raises(ValueError):
            greedy_color_level(state, 3)   # level h is not a greedy level


def copy_by_copy_greedy(r, degrees, support, copies, order):
    """Reference: each copy takes the first color in ``order`` with room at every
    support vertex. Returns (colors, degrees, copies left uncolored)."""
    degrees = {v: list(row) for v, row in degrees.items()}
    colors = {}
    for left in range(copies, 0, -1):
        j = next((j for j in order if all(degrees[v][j] < r[j] for v in support)), None)
        if j is None:
            return colors, degrees, left
        colors[j] = colors.get(j, 0) + 1
        for v in support:
            degrees[v][j] += 1
    return colors, degrees, 0


class TestColorClass:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_copy_by_copy_greedy(self, data):
        k = data.draw(st.integers(1, 6), label="k")
        r = data.draw(st.lists(st.integers(1, 4), min_size=k, max_size=k), label="r")
        params = Parameters(n=6, m=4, h=3, lam=1, r=tuple(r))
        level = data.draw(st.integers(1, 2), label="level")
        support = tuple(sorted(data.draw(
            st.lists(st.integers(1, 4), min_size=3 - level, max_size=3 - level, unique=True),
            label="support")))
        degrees = DegreeTable(params.m, k)
        for v in degrees.ordinary:
            degrees.ordinary[v] = [data.draw(st.integers(0, rj), label=f"deg {v}") for rj in r]
        copies = data.draw(st.integers(0, 12), label="copies")
        order = data.draw(st.permutations(range(k)), label="order")
        want = copy_by_copy_greedy(r, degrees.ordinary, support, copies, order)

        state = AmalgamState(params=params, detached=0, classes={}, degrees=degrees,
                             level_done=0)
        cls = EdgeClass(support=support, amalgam=level, colors={}, uncolored=copies)
        try:
            _color_class(state, cls, list(order))
            stuck = None
        except GreedyStuck as exc:
            stuck = (exc.support, exc.level)
        assert (cls.colors, degrees.ordinary, cls.uncolored) == want
        assert stuck == ((support, level) if want[2] else None)
        assert degrees.amalgam == [level * cls.colors.get(j, 0) for j in range(k)]


class TestFinishLevels:
    def test_worked_example_table(self, worked_instance):
        state = colored_state(worked_instance)
        table = finish_levels(state)
        assert table[0] == [1, 0, 0]
        assert table[1] == [0, 2, 2]

    def test_total_degree_identity(self):
        params = Parameters(n=9, m=3, h=3, lam=1, r=(1,) * 28)
        state = colored_state(random_instance(params, seed=4), seed=4)
        finish_levels(state)
        for v, row in state.degrees.ordinary.items():
            assert sum(row) == params.lam * binom(8, 2)

    def test_saturation_reached_on_full_run(self):
        params = Parameters(n=9, m=3, h=3, lam=1, r=(1,) * 28)
        state = colored_state(random_instance(params, seed=5), seed=5)
        finish_levels(state)   # raises if any degree != r_j
        for row in state.degrees.ordinary.values():
            assert row == [1] * 28

    def test_incomplete_levels_rejected(self, worked_instance):
        state = build_amalgam(worked_instance)
        with pytest.raises(InternalInvariantViolation):
            finish_levels(state)


class TestAssignLevelH:
    def test_worked_example_quota(self, worked_instance):
        state = colored_state(worked_instance)
        table = finish_levels(state)
        assign_level_h(state, table)
        assert table[2] == [1, 0, 0]
        assert state.classes[((), 2)].colors == {0: 1}
        assert state.degrees.amalgam == [2, 2, 2]   # r_j * (n - m)

    def test_ends_with_the_state_check(self, worked_instance):
        state = colored_state(worked_instance)
        table = finish_levels(state)
        state.classes[((1,), 1)].colors = {1: 2}   # was {1: 1, 2: 1}: same total
        with pytest.raises(InternalInvariantViolation,
                           match=r"^color 2: live classes weigh 3, amalgam degree 2"):
            assign_level_h(state, table)

    def test_quota_total_is_new_only_edge_count(self):
        # The input edge's color has forced level counts (1, 0, 0) since
        # 3*t0 + 2*t1 + t2 = r_j*m = 3, so its top quota is exactly 2;
        # every other color satisfies 2*t1 + t2 = 3, giving quota 1 or 0.
        for seed in range(3):
            params = Parameters(n=9, m=3, h=3, lam=1, r=(1,) * 28)
            inst = random_instance(params, seed=seed)
            input_color = next(iter(inst.coloring[0].colors))
            state = colored_state(inst, seed=seed)
            table = finish_levels(state)
            assign_level_h(state, table)
            assert sum(table[3]) == binom(6, 3) == 20
            for j, t in enumerate(table[3]):
                assert t in ((2,) if j == input_color else (0, 1))
            assert state.degrees.amalgam == [6] * 28
