"""Unit tests for the detachment stage and transportation solver."""
from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from hyperfactor.amalgam import assign_level_h, build_amalgam, finish_levels, greedy_color_level
from hyperfactor.combinatorics import binom
from hyperfactor.detach import (
    DetachPlan,
    TransportationProblem,
    build_transportation,
    detach_all,
    detach_step,
    solve_transportation,
)
from hyperfactor.errors import InfeasibleTransport, InternalInvariantViolation
from hyperfactor.generate import random_instance
from hyperfactor.model import Parameters
from hyperfactor.verify import verify_certificate


def ready_state(inst, seed=None):
    import random
    state = build_amalgam(inst)
    rng = random.Random(seed) if seed is not None else None
    for level in range(1, inst.params.h):
        greedy_color_level(state, level, rng=rng)
    assign_level_h(state, finish_levels(state))
    return state


def enumerate_integral_plans(tp: TransportationProblem):
    """All integral plans, parallel to ``tp.caps``, meeting row sums, column sums and caps."""
    k = len(tp.demands)
    solutions = []
    row_choices = []
    for c in range(len(tp.rows)):
        cells = [range(cap + 1) for cap in tp.caps[c]]
        row_choices.append([row for row in product(*cells) if sum(row) == tp.supplies[c]])
    for rows in product(*row_choices):
        col_sums = [0] * k
        for colors, row in zip(tp.colors, rows):
            for j, moved in zip(colors, row):
                col_sums[j] += moved
        if col_sums == tp.demands:
            solutions.append(tuple(rows))
    return solutions


class TestBuildTransportation:
    def test_worked_example_problem(self, worked_instance):
        state = ready_state(worked_instance)
        tp = build_transportation(state)
        assert tp.rows == [((), 2), ((1,), 1), ((2,), 1)]
        assert tp.supplies == [1, 1, 1]
        assert tp.demands == [1, 1, 1]
        assert tp.colors == [[0], [1, 2], [1, 2]]
        assert tp.caps == [[1], [1, 1], [1, 1]]

    def test_totals_balance(self):
        params = Parameters(n=9, m=3, h=3, lam=1, r=(1,) * 28)
        state = ready_state(random_instance(params, seed=2), seed=2)
        tp = build_transportation(state)
        assert sum(tp.supplies) == sum(tp.demands) == binom(8, 2)

    def test_final_step_supplies_all_copies(self, worked_instance):
        state = ready_state(worked_instance)
        detach_step(state)
        assert state.weight == 1
        tp = build_transportation(state)
        # at weight 1 only single-slot classes remain; every copy donates
        for c, key in enumerate(tp.rows):
            assert key[1] == 1
            assert tp.supplies[c] == sum(tp.caps[c])

    def test_fractional_witness_is_exact(self):
        params = Parameters(n=8, m=3, h=2, lam=1, r=(2, 2, 1, 1, 1))
        state = ready_state(random_instance(params, seed=1), seed=1)
        while state.weight > 0:
            q = state.weight
            tp = build_transportation(state)
            col_sums = [Fraction(0)] * params.k
            for c, key in enumerate(tp.rows):
                witness = [Fraction(cap * key[1], q) for cap in tp.caps[c]]
                assert sum(witness) == tp.supplies[c]
                assert all(x <= cap for x, cap in zip(witness, tp.caps[c]))
                for j, x in zip(tp.colors[c], witness):
                    col_sums[j] += x
            for j in range(params.k):
                assert col_sums[j] == tp.demands[j]
            detach_step(state)


class TestSolveTransportation:
    def test_one_by_one(self):
        tp = TransportationProblem(rows=[((), 1)], supplies=[2], demands=[2],
                                   colors=[[0]], caps=[[2]])
        plan = solve_transportation(tp)
        assert plan.moves == [[2]]

    def test_worked_example_plan_is_a_valid_solution(self, worked_instance):
        state = ready_state(worked_instance)
        tp = build_transportation(state)
        solutions = enumerate_integral_plans(tp)
        # exactly the two symmetric solutions exist
        assert len(solutions) == 2
        plan = solve_transportation(tp)
        assert tuple(tuple(row) for row in plan.moves) in solutions
        assert tp.colors[0] == [0] and plan.moves[0] == [1]   # the all-new class donates color 1

    def test_capacity_cut_infeasible(self):
        tp = TransportationProblem(rows=[((), 1)], supplies=[1], demands=[1],
                                   colors=[[]], caps=[[]])
        with pytest.raises(InfeasibleTransport):
            solve_transportation(tp)

    def test_reverse_arc_augmentation(self):
        # The first blocking flow fills color 1 from rows 0 and 1, which
        # leaves row 2 (color 1 only) stuck; the second phase reroutes row 0
        # through the reverse arc of its color-1 cell.
        tp = TransportationProblem(rows=[((1,), 1), ((2,), 1), ((3,), 1)],
                                   supplies=[2, 1, 1], demands=[2, 1, 1],
                                   colors=[[0, 1, 2], [0, 1], [0]], caps=[[1, 1, 1], [1, 1], [1]])
        assert solve_transportation(tp).moves == [[0, 1, 1], [1, 0], [1]]

    def test_cells_list_nonzero_caps_in_color_order(self):
        params = Parameters(n=8, m=3, h=2, lam=2, r=(2,) * 6 + (1, 1))
        state = ready_state(random_instance(params, seed=3), seed=3)
        for cls in state.classes.values():
            cls.colors = dict(reversed(cls.colors.items()))   # insertion order must not matter
        tp = build_transportation(state)
        assert any(len(colors) > 1 for colors in tp.colors)
        for key, colors, caps in zip(tp.rows, tp.colors, tp.caps):
            assert colors == sorted(state.classes[key].colors)
            assert caps == [state.classes[key].colors[j] for j in colors] and all(caps)

    def test_deterministic(self, worked_instance):
        plans = []
        for _ in range(3):
            tp = build_transportation(ready_state(worked_instance))
            plans.append(solve_transportation(tp).moves)
        assert plans[0] == plans[1] == plans[2]


class TestDetachStep:
    def test_worked_example_step(self, worked_instance):
        state = ready_state(worked_instance)
        detach_step(state)
        assert state.detached == 1 and state.weight == 1
        # frozen deterministic outcome, matching the hand trace
        assert state.classes[((1, 3), 0)].colors == {1: 1}
        assert state.classes[((2, 3), 0)].colors == {2: 1}
        assert state.classes[((3,), 1)].colors == {0: 1}
        assert state.classes[((1,), 1)].colors == {2: 1}
        assert state.classes[((2,), 1)].colors == {1: 1}
        assert state.degrees.ordinary[3] == [1, 1, 1]

    def test_multiplicity_law_across_steps(self):
        params = Parameters(n=9, m=3, h=3, lam=2, r=(1,) * 56)
        state = ready_state(random_instance(params, seed=7), seed=7)
        while state.weight > 0:
            detach_step(state)
            q = state.weight
            for (support, level), cls in state.classes.items():
                assert cls.total() == 2 * binom(q, level), (support, level)

    def test_new_vertex_regular_each_step(self):
        params = Parameters(n=8, m=3, h=2, lam=1, r=(2, 2, 1, 1, 1))
        state = ready_state(random_instance(params, seed=9), seed=9)
        step = 0
        while state.weight > 0:
            detach_step(state)
            step += 1
            assert state.degrees.ordinary[3 + step] == [2, 2, 1, 1, 1]


class TestSparseState:
    """The state stores each class's colors as a dict with no zero counts."""

    @pytest.mark.parametrize("params", [
        Parameters(n=8, m=3, h=2, lam=2, r=(2,) * 6 + (1, 1)),
        Parameters(n=9, m=3, h=3, lam=2, r=(2,) * 20 + (1,) * 16),
    ], ids=["h2", "h3"])
    def test_counts_stay_positive_and_exact(self, params):
        def check(state, tp=None, plan=None):
            q = state.weight
            for (support, level), cls in state.classes.items():
                assert all(0 <= j < params.k and cnt > 0 for j, cnt in cls.colors.items()), \
                    (support, level, cls.colors)
                assert cls.total() == params.lam * binom(q, level), (support, level)
            if tp is None:
                return
            # The problem is read straight off the live classes' nonzero counts.
            assert tp.rows == sorted(key for key in state.classes if key[1] >= 1)
            for key, colors, caps, moves in zip(tp.rows, tp.colors, tp.caps, plan.moves,
                                                strict=True):
                assert all(a < b for a, b in zip(colors, colors[1:])), (key, colors)
                assert dict(zip(colors, caps)) == state.classes[key].colors, key
                assert all(cap > 0 for cap in caps), (key, caps)
                assert len(moves) == len(caps), key

        state = ready_state(random_instance(params, seed=3), seed=3)
        while state.weight > 0:
            detach_step(state, hook=check)   # the hook sees the state the step starts from
            check(state)
        assert state.detached == params.n - params.m


class TestStepChecks:
    """Every step validates the plan it is given and recounts every class."""

    # The worked example's first step has colors [[0], [1, 2], [1, 2]], caps
    # [[1], [1, 1], [1, 1]], and unit supplies and demands.
    @pytest.mark.parametrize("moves, message", [
        ([[1], [2, -1], [-1, 2]], "cap"),             # sums kept, caps broken
        ([[1], [1, 1], [0, 0]], "supply"),            # only row sums broken
        ([[1], [1, 0], [1, 0]], "column 2 sum 2"),    # only column sums broken
        ([[1], [1], [0, 1]], "1 moves for 2 cells"),  # a row not parallel to its caps
    ])
    def test_bad_plan_is_rejected(self, worked_instance, monkeypatch, moves, message):
        from hyperfactor import detach
        monkeypatch.setattr(detach, "solve_transportation",
                            lambda tp: DetachPlan(rows=tp.rows, moves=moves))
        with pytest.raises(InternalInvariantViolation, match=message):
            detach_step(ready_state(worked_instance))

    def test_recount_covers_untouched_classes(self, worked_instance):
        def add_copy(state, tp, plan):
            untouched = next(cls for key, cls in state.classes.items() if key[1] == 0)
            untouched.colors[0] += 1

        with pytest.raises(InternalInvariantViolation, match=r"class \(\(1, 2\), 0\) holds 2"):
            detach_step(ready_state(worked_instance), hook=add_copy)

    def test_color_sums_checked_on_the_same_step(self, worked_instance):
        # Shift one copy the plan leaves behind to another color of its live
        # class: every class total holds, only the color weights change.
        def shift_copy(state, tp, plan):
            for key, colors, caps, moves in zip(tp.rows, tp.colors, tp.caps, plan.moves):
                for t, (cap, moved) in enumerate(zip(caps, moves)):
                    if cap > moved and len(colors) > 1:
                        counts = state.classes[key].colors
                        other = colors[t - 1]
                        counts[colors[t]] -= 1
                        counts[other] += 1
                        return

        with pytest.raises(InternalInvariantViolation, match=r"^color 2: live classes weigh"):
            detach_step(ready_state(worked_instance), hook=shift_copy)


class TestDetachAll:
    def test_worked_example_certificate(self, worked_instance):
        state = ready_state(worked_instance)
        cert = detach_all(state)
        by_color = {1: set(), 2: set(), 3: set()}
        for cls in cert.coloring:
            for j in cls.colors:
                by_color[j + 1].add(cls.support)
        assert by_color[1] == {(1, 2), (3, 4)}
        assert by_color[2] == {(1, 3), (2, 4)}
        assert by_color[3] == {(1, 4), (2, 3)}
        assert verify_certificate(cert, worked_instance).ok

    def test_parallel_triple_classes(self):
        params = Parameters(n=9, m=3, h=3, lam=1, r=(1,) * 28)
        inst = random_instance(params, seed=11)
        cert = detach_all(ready_state(inst, seed=11))
        assert verify_certificate(cert, inst).ok
        # each color class is 3 pairwise disjoint triples covering [1,9]
        for j in range(28):
            triples = [c.support for c in cert.coloring if j in c.colors]
            assert len(triples) == 3
            covered = sorted(v for t in triples for v in t)
            assert covered == list(range(1, 10))

    def test_two_factors_of_doubled_k6(self):
        params = Parameters(n=6, m=3, h=2, lam=2, r=(2, 2, 2, 2, 2))
        inst = random_instance(params, seed=13)
        cert = detach_all(ready_state(inst, seed=13))
        assert verify_certificate(cert, inst).ok

    def test_trace_records(self, worked_instance):
        records = []
        detach_all(ready_state(worked_instance), trace=records.append)
        assert [r["stage"] for r in records] == ["detach", "detach"]
        assert [r["s"] for r in records] == [1, 2]
        assert [r["q"] for r in records] == [1, 0]
        assert all(r.keys() == {"stage", "s", "q"} for r in records)
