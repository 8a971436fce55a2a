"""Unit tests for the detachment stage and transportation solver."""
from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product

import pytest

import hyperfactor
from hyperfactor import detach as detach_module
from hyperfactor.amalgam import (
    AmalgamState,
    assign_level_h,
    build_amalgam,
    finish_levels,
    greedy_color_level,
)
from hyperfactor.cli import build_r_vector
from hyperfactor.combinatorics import binom, bound_holds
from hyperfactor.detach import (
    DetachPlan,
    TransportationProblem,
    build_transportation,
    detach_all,
    detach_step,
    solve_transportation,
)
from hyperfactor.errors import InadmissibleParameters, InternalInvariantViolation
from hyperfactor.generate import random_instance
from hyperfactor.model import EdgeClass, Parameters, is_admissible, serialize_certificate
from hyperfactor.pipeline import extend_instance
from hyperfactor.verify import verify_certificate


def ready_state(inst, seed=None):
    state = build_amalgam(inst)
    rng = random.Random(seed) if seed is not None else None
    for level in range(1, inst.params.h):
        greedy_color_level(state, level, rng=rng)
    assign_level_h(state, finish_levels(state))
    return state


def vertex_degrees(state, v):
    """The per-color degree of vertex ``v``, recounted from the state's classes."""
    row = [0] * state.params.k
    for (support, _), cls in state.classes.items():
        if v in support:
            for j, cnt in cls.colors.items():
                row[j] += cnt
    return row


def enumerate_integral_plans(tp: TransportationProblem):
    """All integral plans meeting row sums, column sums and caps, as plans' sparse row maps."""
    k = len(tp.demands)
    solutions = []
    row_choices = []
    for c in range(len(tp.rows)):
        cells = [range(cap + 1) for cap in tp.held[c].values()]
        row_choices.append([row for row in product(*cells) if sum(row) == tp.supplies[c]])
    for rows in product(*row_choices):
        col_sums = [0] * k
        for held, row in zip(tp.held, rows):
            for j, moved in zip(held, row):
                col_sums[j] += moved
        if col_sums == tp.demands:
            solutions.append(as_maps(tp, rows))
    return solutions


def as_maps(tp: TransportationProblem, moves) -> list[dict[int, int]]:
    """Rows of moves parallel to ``tp.held`` as ``{color: moved}`` maps of the nonzero cells."""
    return [{j: moved for j, moved in zip(held, row) if moved}
            for held, row in zip(tp.held, moves, strict=True)]


def reference_moves(tp: TransportationProblem):
    """The plan of a generic Dinic on an explicit arc list, or None if the flow falls short.

    Arcs are source -> row c (cap supply), then row c -> color j per held
    color, rows in order and colors ascending (cap count), then color j ->
    sink (cap demand). Arc 2a runs tails[a] -> heads[a], arc 2a + 1 is its
    reverse, and every node lists its arcs in that order. The iterative DFS
    finds the same paths as a recursive one that restarts from the source
    after each push and moves a node past an arc once it is saturated or
    leads to a dead end.
    """
    num_rows, k = len(tp.rows), len(tp.demands)
    sink = 1 + num_rows + k
    tails, heads, caps = [0] * num_rows, list(range(1, 1 + num_rows)), list(tp.supplies)
    for c, held in enumerate(tp.held, start=1):
        tails += [c] * len(held)
        heads += [1 + num_rows + j for j in held]
        caps += held.values()
    tails += range(1 + num_rows, sink)
    heads += [sink] * k
    caps += tp.demands

    to, cap = [0] * (2 * len(heads)), [0] * (2 * len(heads))
    to[0::2], to[1::2], cap[0::2] = heads, tails, caps
    adj = [[] for _ in range(sink + 1)]
    for a, (u, v) in enumerate(zip(tails, heads)):
        adj[u].append(2 * a)
        adj[v].append(2 * a + 1)
    flow = 0
    while True:
        level = [-1] * (sink + 1)
        level[0] = 0
        queue = [0]
        for u in queue:
            if level[sink] >= 0:
                break
            for idx in adj[u]:
                if cap[idx] > 0 and level[to[idx]] < 0:
                    level[to[idx]] = level[u] + 1
                    queue.append(to[idx])
        if level[sink] < 0:
            break
        untried = [None] * (sink + 1)
        path = []
        u = 0
        while True:
            if u == sink:
                pushed = min(map(cap.__getitem__, path))
                for idx in path:
                    cap[idx] -= pushed
                    cap[idx ^ 1] += pushed
                flow += pushed
                path.clear()
                u = 0
                continue
            arcs = untried[u]
            if arcs is None:
                arcs = untried[u] = [idx for idx in reversed(adj[u])
                                     if cap[idx] > 0 and level[to[idx]] == level[u] + 1]
            while arcs and not (cap[arcs[-1]] and level[to[arcs[-1]]] >= 0):
                arcs.pop()
            if arcs:
                path.append(arcs[-1])
                u = to[arcs[-1]]
            elif u == 0:
                break
            else:
                level[u] = -1
                u = to[path.pop() ^ 1]
    if flow != sum(tp.supplies):
        return None
    cell_residual = iter(cap[2 * num_rows::2])
    return [[c - left for c, left in zip(held.values(), cell_residual)] for held in tp.held]


def random_problem(rng) -> TransportationProblem:
    """1-7 rows over 1-7 colors, caps 1-3, supplies up to a row's copies, balanced demands."""
    num_rows, k = rng.randint(1, 7), rng.randint(1, 7)
    colors = [sorted(rng.sample(range(k), rng.randint(0, k))) for _ in range(num_rows)]
    caps = [[rng.randint(1, 3) for _ in row] for row in colors]
    supplies = [rng.randint(0, sum(row)) for row in caps]
    demands = [0] * k
    for _ in range(sum(supplies)):
        demands[rng.randrange(k)] += 1
    return TransportationProblem(rows=[((c + 1,), 1) for c in range(num_rows)],
                                 supplies=supplies, demands=demands,
                                 held=list(map(dict, map(zip, colors, caps))))


def random_wide_problem(rng) -> TransportationProblem:
    """1-7 sparse rows over k = 60-600 colors, so color masks span many machine words.

    Each row holds 1-5 colors of a pool of 2-8 drawn from all k, caps 1-3. The
    supplies and demands are the sums of a random plan within the caps, and one
    problem in four then shifts a unit of demand to another color of the pool,
    which may leave it infeasible. Every other problem carries its masks, the
    rest leave the solver to derive them.
    """
    k = rng.randint(60, 600)
    pool = rng.sample(range(k), rng.randint(2, 8))
    colors = [sorted(rng.sample(pool, rng.randint(1, min(5, len(pool)))))
              for _ in range(rng.randint(1, 7))]
    caps = [[rng.randint(1, 3) for _ in row] for row in colors]
    plan = [[rng.randint(0, cap) for cap in row] for row in caps]
    supplies = list(map(sum, plan))
    demands = [0] * k
    for row, moved in zip(colors, plan):
        for j, x in zip(row, moved):
            demands[j] += x
    if rng.random() < 0.25 and any(demands):
        demands[rng.choice([j for j in pool if demands[j]])] -= 1
        demands[rng.choice(pool)] += 1
    masks = [sum(1 << j for j in row) for row in colors] if rng.random() < 0.5 else None
    return TransportationProblem(rows=[((c + 1,), 1) for c in range(len(colors))],
                                 supplies=supplies, demands=demands,
                                 held=list(map(dict, map(zip, colors, caps))), masks=masks)


class TestBuildTransportation:
    def test_worked_example_problem(self, worked_instance):
        state = ready_state(worked_instance)
        tp = build_transportation(state)
        assert tp.rows == [((), 2), ((1,), 1), ((2,), 1)]
        assert tp.supplies == [1, 1, 1]
        assert tp.demands == [1, 1, 1]
        assert [list(held.items()) for held in tp.held] == [[(0, 1)], [(1, 1), (2, 1)],
                                                             [(1, 1), (2, 1)]]
        assert all(held is state.classes[key].colors for key, held in zip(tp.rows, tp.held))

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
            assert tp.supplies[c] == sum(tp.held[c].values())

    def test_fractional_witness_is_exact(self):
        params = Parameters(n=8, m=3, h=2, lam=1, r=(2, 2, 1, 1, 1))
        state = ready_state(random_instance(params, seed=1), seed=1)
        while state.weight > 0:
            q = state.weight
            tp = build_transportation(state)
            col_sums = [Fraction(0)] * params.k
            for c, key in enumerate(tp.rows):
                caps = tp.held[c].values()
                witness = [Fraction(cap * key[1], q) for cap in caps]
                assert sum(witness) == tp.supplies[c]
                assert all(x <= cap for x, cap in zip(witness, caps))
                for j, x in zip(tp.held[c], witness):
                    col_sums[j] += x
            for j in range(params.k):
                assert col_sums[j] == tp.demands[j]
            detach_step(state)


    def test_no_weight_left(self, worked_instance):
        state = ready_state(worked_instance)
        detach_all(state)
        with pytest.raises(InternalInvariantViolation, match="^no amalgam weight left to detach$"):
            build_transportation(state)

    def test_coloring_must_be_complete(self, worked_instance):
        with pytest.raises(InternalInvariantViolation,
                           match="^detachment before the coloring is complete$"):
            build_transportation(build_amalgam(worked_instance))

    def test_supply_must_meet_demand(self, worked_instance):
        state = ready_state(worked_instance)
        key = min(state.live)   # ((), 2) donates lambda * C(1, 1) = 1 copy
        del state.classes[key], state.live[key]
        with pytest.raises(InternalInvariantViolation,
                           match="^color 1: live classes weigh 0, expected 1$"):
            detach_step(state)


class TestSolveTransportation:
    def test_one_by_one(self):
        tp = TransportationProblem(rows=[((), 1)], supplies=[2], demands=[2], held=[{0: 2}])
        plan = solve_transportation(tp)
        assert plan.moves == [{0: 2}]

    def test_worked_example_plan_is_a_valid_solution(self, worked_instance):
        state = ready_state(worked_instance)
        tp = build_transportation(state)
        solutions = enumerate_integral_plans(tp)
        # exactly the two symmetric solutions exist
        assert len(solutions) == 2
        plan = solve_transportation(tp)
        assert plan.moves in solutions
        assert list(tp.held[0]) == [0] and plan.moves[0] == {0: 1}   # the all-new class gives color 1

    def test_capacity_cut_infeasible(self):
        tp = TransportationProblem(rows=[((), 1)], supplies=[1], demands=[1], held=[{}])
        with pytest.raises(InternalInvariantViolation,
                           match=r"^max flow 0 < required 1; row \(\(\), 1\) short by 1$"):
            solve_transportation(tp)

    @pytest.mark.parametrize("held, supplies, demands", [
        ([{0: 1}], [1], [0, 1]),                   # the greedy takes color 2
        ([{0: 1}, {0: 1}], [1, 1], [1, 1]),        # a later phase reroutes to color 2
    ], ids=["greedy", "later-phase"])
    def test_mask_bit_without_its_cell_is_named(self, held, supplies, demands):
        # Row ((1,), 1)'s mask claims color 2, which its map lacks.
        tp = TransportationProblem(rows=[((1,), 1), ((2,), 1)][:len(held)], supplies=supplies,
                                   demands=demands, held=held, masks=[0b11, 0b01][:len(held)])
        with pytest.raises(InternalInvariantViolation,
                           match=r"^row \(\(1,\), 1\) has color mask 0x3, but holds colors 0x1$"):
            solve_transportation(tp)

    def test_reverse_arc_augmentation(self):
        # The first blocking flow fills color 1 from rows 0 and 1, which
        # leaves row 2 (color 1 only) stuck; the second phase reroutes row 0
        # through the reverse arc of its color-1 cell.
        tp = TransportationProblem(rows=[((1,), 1), ((2,), 1), ((3,), 1)],
                                   supplies=[2, 1, 1], demands=[2, 1, 1],
                                   held=[{0: 1, 1: 1, 2: 1}, {0: 1, 1: 1}, {0: 1}])
        assert solve_transportation(tp).moves == [{1: 1, 2: 1}, {0: 1}, {0: 1}]

    def test_infeasible_names_the_short_row(self):
        tp = TransportationProblem(rows=[((1,), 1), ((2,), 1)], supplies=[1, 1], demands=[1, 1],
                                   held=[{0: 1}, {0: 1}])
        with pytest.raises(InternalInvariantViolation) as info:
            solve_transportation(tp)
        assert str(info.value) == "max flow 1 < required 2; row ((2,), 1) short by 1"

    def test_a_phase_that_pushes_nothing_raises(self, monkeypatch):
        from hyperfactor import detach
        calls = []

        def stalled_phase(tp, moves, row_left, col_left, holders, resid, rerouted):
            calls.append(None)   # reaches the sink, pushes no unit
            if len(calls) > 3:
                raise RuntimeError("the solver repeats a phase that pushes nothing")
            return True

        monkeypatch.setattr(detach, "_later_phase", stalled_phase)
        # The reverse-arc problem: the greedy phase leaves row 2 short.
        tp = TransportationProblem(rows=[((1,), 1), ((2,), 1), ((3,), 1)],
                                   supplies=[2, 1, 1], demands=[2, 1, 1],
                                   held=[{0: 1, 1: 1, 2: 1}, {0: 1, 1: 1}, {0: 1}])
        with pytest.raises(InternalInvariantViolation,
                           match=r"^a flow phase pushed nothing; row \(\(3,\), 1\) short by 1$"):
            solve_transportation(tp)
        assert len(calls) == 1

    # The 33rd draw of random_problem(random.Random(2024)), the first that makes
    # the mutant below loop: its later phase reaches a saturated cell.
    PINNED = TransportationProblem(
        rows=[((c,), 1) for c in range(1, 6)], supplies=[2, 5, 2, 2, 6],
        demands=[2, 2, 2, 3, 3, 5],
        held=[{1: 2, 2: 2, 3: 3, 4: 1}, {0: 3, 1: 3, 2: 2, 3: 1, 5: 3}, {1: 1, 2: 2},
              {0: 3, 1: 2, 4: 2}, {0: 2, 1: 2, 3: 1, 5: 1}])

    def test_a_path_that_pushes_nothing_raises(self):
        # A mutant whose DFS accepts saturated cells pushes zero units along a
        # path, and without the guard retries it forever; the child process's
        # timeout turns such a hang into a failure here.
        rng = random.Random(2024)
        for _ in range(33):
            drawn = random_problem(rng)
        assert drawn == self.PINNED
        source = open(detach_module.__file__, encoding="utf-8").read()
        arc_test = "arcs = resid[u] & colors_at[level[u] + 1]"
        assert source.count(arc_test) == 1   # the DFS's arcs at a row: its residual mask
        # The mutant's DFS reads every color the row holds, saturated cells included.
        mutant = source.replace(arc_test, arc_test.replace(
            "resid[u]", "sum(map((1).__lshift__, held[u]))"))
        child = textwrap.dedent(f"""
            import importlib.util, sys
            from hyperfactor.errors import InternalInvariantViolation
            spec = importlib.util.spec_from_loader("hyperfactor._detach_mutant", loader=None)
            mutant = importlib.util.module_from_spec(spec)
            mutant.__package__ = "hyperfactor"
            sys.modules[spec.name] = mutant
            exec(compile(sys.stdin.read(), "detach_mutant.py", "exec"), mutant.__dict__)
            try:
                mutant.solve_transportation(mutant.TransportationProblem(**{vars(self.PINNED)!r}))
            except InternalInvariantViolation as exc:
                print(exc)
        """)
        package_parent = os.path.dirname(os.path.dirname(hyperfactor.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [package_parent, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", child], input=mutant, capture_output=True,
                              text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "a flow path from row ((3,), 1) pushed nothing\n"

    def test_matches_the_reference_dinic(self):
        rng = random.Random(2024)
        infeasible = 0
        for _ in range(2000):
            tp = random_problem(rng)
            want = reference_moves(tp)
            try:
                got = [list(row.items()) for row in solve_transportation(tp).moves]
            except InternalInvariantViolation as exc:   # a stalled phase must not pass as short
                assert str(exc).startswith("max flow "), exc
                got = None
            if want is not None:   # the nonzero cells, colors ascending
                want = [list(row.items()) for row in as_maps(tp, want)]
            assert got == want, tp
            infeasible += want is None
        assert 0 < infeasible < 2000   # both outcomes are exercised

    def test_matches_the_reference_dinic_on_wide_colors(self, monkeypatch):
        phases = []
        real_phase = detach_module._later_phase

        def counted_phase(*args):
            phases.append(None)
            return real_phase(*args)

        monkeypatch.setattr(detach_module, "_later_phase", counted_phase)
        rng = random.Random(2025)
        infeasible = rerouted_wide = 0
        for _ in range(400):
            tp = random_wide_problem(rng)
            masks = None if tp.masks is None else list(tp.masks)
            want = reference_moves(tp)
            del phases[:]
            try:
                got = [list(row.items()) for row in solve_transportation(tp).moves]
            except InternalInvariantViolation as exc:
                assert str(exc).startswith("max flow "), exc
                got = None
            if want is not None:
                want = [list(row.items()) for row in as_maps(tp, want)]
            assert got == want, tp
            assert tp.masks == masks   # the solver copies the masks and never writes them
            infeasible += want is None
            rerouted_wide += bool(want and phases and max(map(max, filter(None, tp.held))) >= 64)
        assert 0 < infeasible < 400
        assert rerouted_wide >= 100   # later phases rerouting over colors past one machine word

    def test_cells_list_nonzero_caps_in_color_order(self):
        params = Parameters(n=8, m=3, h=2, lam=2, r=(2,) * 6 + (1, 1))
        state = ready_state(random_instance(params, seed=3), seed=3)   # a shuffled greedy
        for key in state.live:   # the state keeps every live map ascending
            assert list(state.classes[key].colors) == sorted(state.classes[key].colors), key
        tp = build_transportation(state)
        assert any(len(held) > 1 for held in tp.held)
        for key, held in zip(tp.rows, tp.held, strict=True):
            assert held is state.classes[key].colors, key
            assert list(held) == sorted(held) and all(held.values()), (key, held)

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
        assert vertex_degrees(state, 3) == [1, 1, 1]

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
            assert vertex_degrees(state, 3 + step) == [2, 2, 1, 1, 1]


SPARSE_CELLS = pytest.mark.parametrize("params", [
    Parameters(n=8, m=3, h=2, lam=2, r=(2,) * 6 + (1, 1)),
    Parameters(n=9, m=3, h=3, lam=2, r=(2,) * 20 + (1,) * 16),
], ids=["h2", "h3"])


class TestSparseState:
    """The state stores each class's colors as a dict with no zero counts."""

    @SPARSE_CELLS
    def test_counts_stay_positive_and_exact(self, params):
        def check(state, tp=None, plan=None):
            q = state.weight
            for (support, level), cls in state.classes.items():
                assert all(0 <= j < params.k and cnt > 0 for j, cnt in cls.colors.items()), \
                    (support, level, cls.colors)
                assert cls.total() == params.lam * binom(q, level), (support, level)
            if tp is None:
                return
            # The problem is read straight off the live classes' nonzero counts,
            # and the plan's rows are nonzero maps within those counts.
            assert tp.rows == sorted(key for key in state.classes if key[1] >= 1)
            columns = [0] * params.k
            for key, held, moves, supply in zip(tp.rows, tp.held, plan.moves, tp.supplies,
                                                strict=True):
                colors = list(held)
                assert all(a < b for a, b in zip(colors, colors[1:])), (key, colors)
                assert held is state.classes[key].colors, key
                assert all(cap > 0 for cap in held.values()), (key, held)
                assert all(0 < moved <= held.get(j, 0) for j, moved in moves.items()), key
                assert sum(moves.values()) == supply, key
                for j, moved in moves.items():
                    columns[j] += moved
            assert columns == tp.demands

        state = ready_state(random_instance(params, seed=3), seed=3)
        while state.weight > 0:
            detach_step(state, hook=check)   # the hook sees the state the step starts from
            check(state)
        assert state.detached == params.n - params.m

    @SPARSE_CELLS
    def test_rows_are_the_live_class_maps(self, params):
        steps = []

        def rows_in_place(state, tp, plan):
            steps.append(None)
            for c, key in enumerate(tp.rows):
                assert tp.held[c] is state.classes[key].colors, key
                assert list(tp.caps[c]) == list(tp.held[c].values()), key

        detach_all(ready_state(random_instance(params, seed=3), seed=3), hook=rows_in_place)
        assert len(steps) == params.n - params.m

    @SPARSE_CELLS
    def test_plan_rows_are_ascending_nonzero_maps(self, params):
        steps = []

        def shape(state, tp, plan):
            steps.append(len(plan.moves))
            for key, held, moves in zip(tp.rows, tp.held, plan.moves, strict=True):
                assert list(moves) == sorted(moves) and moves.keys() <= held.keys(), (key, moves)
                assert all(moved >= 1 for moved in moves.values()), (key, moves)

        detach_all(ready_state(random_instance(params, seed=3), seed=3), hook=shape)
        assert len(steps) == params.n - params.m and all(steps)


    @pytest.mark.parametrize("params", [
        Parameters(n=8, m=3, h=2, lam=2, r=(2,) * 6 + (1, 1)),
        Parameters(n=9, m=3, h=3, lam=2, r=(2,) * 20 + (1,) * 16),
        Parameters(n=8, m=5, h=4, lam=1, r=(1,) * 35),
        Parameters(n=70, m=18, h=2, lam=1, r=(1,) * 69),
    ], ids=["h2", "h3", "h4", "h2-wide"])
    def test_live_masks_match_their_maps(self, params):
        def masks_in_step(state, tp=None, plan=None):
            for key, mask in state.live.items():
                assert mask == sum(1 << j for j in state.classes[key].colors), key

        state = build_amalgam(random_instance(params, seed=3))
        masks_in_step(state)
        for level in range(1, params.h):
            greedy_color_level(state, level, rng=random.Random(3))
            masks_in_step(state)
        assign_level_h(state, finish_levels(state))
        steps = []
        detach_all(state, hook=lambda *args: (steps.append(None), masks_in_step(*args)))
        masks_in_step(state)
        assert len(steps) == params.n - params.m and not state.live


class TestStepChecks:
    """Every step validates the plan it is given and recounts every class."""

    # The worked example's first step has rows ((), 2), ((1,), 1) and ((2,), 1)
    # holding colors {0}, {1, 2} and {1, 2} once each, and unit supplies and demands.
    # A wrong row sum breaks its target's total; a wrong column sum, a color's weight.
    @pytest.mark.parametrize("moves, message", [
        ([{0: 1}, {1: 2, 2: -1}, {1: -1, 2: 2}], "cap"),   # sums kept, caps broken
        ([{0: 1}, {1: 1, 2: 1}, {}], r"^class \(\(1, 3\), 0\) holds 2 copies, expected 1$"),
        ([{0: 1}, {1: 1}, {1: 1}], r"^color 2: live classes weigh 0, expected 1$"),
        ([{0: 1}, {1: 1, 2: 1}, {2: -1}], r"moves -1 copies of color 3, cap 1"),
        ([{0: 1}, {1: 1}, {1: 0, 2: 1}],   # a zero entry
         r"^row \(\(2,\), 1\) moves 0 copies of color 2, cap 1$"),
        ([{0: 1}, {0: 1}, {1: 1}],         # a color the row does not hold
         r"^row \(\(1,\), 1\) moves 1 copies of color 1, cap 0$"),
        ([{0: 1}, {2: -1}, {1: 1, 2: 1}],  # a lone negative move, the row's only entry
         r"^row \(\(1,\), 1\) moves -1 copies of color 3, cap 1$"),
    ], ids=["moves0-cap", "moves1-supply", "moves2-column 2 sum 2",
            "moves4-moves -1 copies of color 3, cap 1", "zero entry", "color not held",
            "lone negative"])
    def test_bad_plan_is_rejected(self, worked_instance, monkeypatch, moves, message):
        from hyperfactor import detach
        monkeypatch.setattr(detach, "solve_transportation",
                            lambda tp: DetachPlan(moves=moves))
        with pytest.raises(InternalInvariantViolation, match=message):
            detach_step(ready_state(worked_instance))

    def test_recount_covers_untouched_classes(self, worked_instance):
        def add_copy(state, tp, plan):
            untouched = next(cls for key, cls in state.classes.items() if key[1] == 0)
            untouched.colors[0] += 1

        with pytest.raises(InternalInvariantViolation, match=r"class \(\(1, 2\), 0\) holds 2"):
            detach_step(ready_state(worked_instance), hook=add_copy)

    def test_finished_class_recolored_on_the_same_step(self, worked_instance):
        # A copy moved between colors of a class no step touches keeps every
        # total and every live weight; only the sealed copy tells.
        def recolor(state, tp, plan):
            untouched = state.classes[((1, 2), 0)].colors
            assert untouched == {0: 1}
            del untouched[0]
            untouched[1] = 1

        with pytest.raises(InternalInvariantViolation,
                           match=r"^class \(\(1, 2\), 0\) went from \{0: 1\} to \{1: 1\}$"):
            detach_step(ready_state(worked_instance), hook=recolor)

    def test_unindexed_class_is_caught(self, worked_instance):
        def add_class(state, tp, plan):
            state.classes[((1, 9), 0)] = EdgeClass(support=(1, 9), amalgam=0, colors={0: 5})

        with pytest.raises(InternalInvariantViolation,
                           match=r"^7 classes, but 3 live and 3 finished$"):
            detach_step(ready_state(worked_instance), hook=add_class)

    def test_color_sums_checked_on_the_same_step(self, worked_instance):
        # Shift one copy the plan leaves behind to another color of its live
        # class: every class total holds, only the color weights change.
        def shift_copy(state, tp, plan):
            for held, moves in zip(tp.held, plan.moves):   # each row is its live class's map
                colors = list(held)
                for t, j in enumerate(colors):
                    if held[j] > moves.get(j, 0) and len(colors) > 1:
                        held[j] -= 1
                        held[colors[t - 1]] += 1
                        return

        with pytest.raises(InternalInvariantViolation, match=r"^color 2: live classes weigh"):
            detach_step(ready_state(worked_instance), hook=shift_copy)


    def test_mask_out_of_step_is_named(self):
        # Trade one copy the plan leaves behind between two live classes of one
        # level: every total and color weight holds, but the first class now
        # holds a color its mask lacks.
        params = Parameters(n=8, m=3, h=2, lam=2, r=(2,) * 6 + (1, 1))
        edited = []

        def trade(state, tp, plan):
            rows = list(zip(tp.rows, tp.held, plan.moves))
            for (key, held, moves), (other, held2, moves2) in product(rows, rows):
                if key[1] != other[1] or key == other:
                    continue
                a = next((j for j in held if j in held2 and held[j] > 1 + moves.get(j, 0)), None)
                b = next((j for j in held2 if j not in held and held2[j] > 1 + moves2.get(j, 0)),
                         None)
                if a is not None and b is not None:
                    held[a], held2[a] = held[a] - 1, held2[a] + 1
                    held2[b], held[b] = held2[b] - 1, 1
                    edited.append(key)
                    return

        state = ready_state(random_instance(params, seed=3), seed=3)
        with pytest.raises(InternalInvariantViolation,
                           match=r"^class \(\(\d+,\), 1\) has color mask") as info:
            detach_all(state, hook=trade)
        assert edited and str(info.value).startswith(f"class {edited[0]} has color mask")


def small_cells() -> list[Parameters]:
    """Admissible above-bound cells like the benchmark's sweep.

    h=2 takes m in 2..8 and h=3 m in 3..4; n runs from the first value above
    the bound up to 3 more; lambda in 1..3; r is ones or uniform:2.
    """
    cells = []
    for h, m_values in ((2, range(2, 9)), (3, range(3, 5))):
        for m in m_values:
            first = next(n for n in range(m + 1, 10 * m) if bound_holds(n, m, h))
            for n, lam, pattern in product(range(first, first + 4), (1, 2, 3),
                                           ("ones", "uniform:2")):
                try:
                    params = Parameters(n=n, m=m, h=h, lam=lam,
                                        r=build_r_vector(pattern, n, h, lam))
                except InadmissibleParameters:
                    continue
                if is_admissible(params):
                    cells.append(params)
    return cells


class TestFastCheck:
    """Without a hook a step checks its own sums; the recount runs elsewhere."""

    @staticmethod
    def count_recounts(monkeypatch):
        recounts = []
        real = AmalgamState.check

        def counting(state):
            recounts.append(None)
            return real(state)

        monkeypatch.setattr(AmalgamState, "check", counting)
        return recounts

    @pytest.mark.parametrize("hook", [None, lambda state, tp, plan: None], ids=["plain", "hook"])
    def test_full_recounts_in_a_passing_extension(self, monkeypatch, hook):
        params = Parameters(n=14, m=4, h=2, lam=1, r=(1,) * 13)
        inst = random_instance(params, seed=3)
        recounts = self.count_recounts(monkeypatch)
        assert verify_certificate(extend_instance(inst, seed=3, hook=hook), inst).ok
        # the quotas, and each step only under a hook
        assert len(recounts) == (1 if hook is None else params.n - params.m + 1)

    def test_hook_and_no_hook_give_the_same_certificates(self):
        sample = random.Random(23).sample(small_cells(), 60)
        assert {p.h for p in sample} == {2, 3} and {p.lam for p in sample} == {1, 2, 3}
        for t, params in enumerate(sample):
            inst = random_instance(params, seed=t)
            seed = t if t % 2 else None   # every other cell shuffles its greedy levels
            plain = detach_all(ready_state(inst, seed=seed))
            hooked = detach_all(ready_state(inst, seed=seed), hook=lambda state, tp, plan: None)
            assert serialize_certificate(plain) == serialize_certificate(hooked), (params, seed)

    # When the recount holds, a plan with a wrong sum is named by its first wrong
    # row or color. The recount is stubbed out: on a real state it names the
    # class or color the wrong sum broke first.
    @pytest.mark.parametrize("moves, message", [
        ([{0: 1}, {1: 1, 2: 1}, {}], r"^row \(\(1,\), 1\) gives 2 copies, expected 1$"),
        ([{0: 1}, {1: 1}, {1: 1}], r"^color 2: moves total 2, expected 1$"),
    ], ids=["row", "color"])
    def test_plan_sums_named_when_the_recount_holds(self, worked_instance, monkeypatch,
                                                    moves, message):
        from hyperfactor import detach
        state = ready_state(worked_instance)
        monkeypatch.setattr(detach, "solve_transportation", lambda tp: DetachPlan(moves=moves))
        monkeypatch.setattr(AmalgamState, "check", lambda state: None)
        with pytest.raises(InternalInvariantViolation, match=message):
            detach_step(state)


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

    def test_live_class_left_at_the_end_is_caught(self, worked_instance):
        def index_empty_class(state, tp, plan):
            if state.weight == 1:   # an empty level-2 class passes the last step's check
                state.get_class((), 2)

        with pytest.raises(InternalInvariantViolation,
                           match=r"^class \(\(\), 2\) kept amalgam slots$"):
            detach_all(ready_state(worked_instance), hook=index_empty_class)

    def test_trace_records(self, worked_instance):
        records = []
        detach_all(ready_state(worked_instance), trace=records.append)
        assert [r["stage"] for r in records] == ["detach", "detach"]
        assert [r["s"] for r in records] == [1, 2]
        assert [r["q"] for r in records] == [1, 0]
        assert all(r.keys() == {"stage", "s", "q"} for r in records)
