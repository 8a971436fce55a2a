"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import count

from hyperfactor import cli
from hyperfactor.combinatorics import binom, bound_holds
from hyperfactor.errors import InadmissibleParameters
from hyperfactor.generate import random_instance
from hyperfactor.model import Parameters, is_admissible, parse_certificate
from hyperfactor.pipeline import extend_instance
from hyperfactor.verify import verify_certificate

from oracles import (
    EXHAUSTED,
    TOO_LARGE,
    blocked_degree_bound,
    brute_force_extend,
    outside_majority_holds,
    vandermonde_sum,
)
from test_pipeline import STUCK_DOC

WORKED_DOC = ('{"n":4,"m":2,"h":2,"lambda":1,"r":[1,1,1],'
              '"edges":[{"support":[1,2],"alpha":0,"colors":{"1":1}}]}\n')


@contextmanager
def criterion(number: int, description: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL ({time.monotonic() - start:.1f}s): {description}")
        raise
    print(f"ACCEPTANCE {number} PASS ({time.monotonic() - start:.1f}s): {description}")


def ones_params(n, m, h, lam) -> Parameters:
    return Parameters(n=n, m=m, h=h, lam=lam, r=(1,) * (lam * binom(n - 1, h - 1)))


def run_one(params: Parameters, seed: int, hook=None) -> None:
    inst = random_instance(params, seed=seed)
    cert = extend_instance(inst, seed=seed, hook=hook)
    report = verify_certificate(cert, inst)
    assert report.ok, (params, seed, report.failures[:2])


def test_criterion_1_end_to_end_h2():
    with criterion(1, "h=2 grid, 20 seeds per cell, verified, < 10 s"):
        start = time.monotonic()
        for m in (2, 3, 4):
            for n in range(2 * m, 2 * m + 7, 2):
                params = ones_params(n, m, 2, 1)
                for seed in range(20):
                    run_one(params, seed)
        assert time.monotonic() - start < 10.0


def test_criterion_2_end_to_end_h3():
    with criterion(2, "h=3 cells (3,9) and (4,15), lambda in {1,2}, 10 seeds, < 30 s"):
        start = time.monotonic()
        for m, n in ((3, 9), (4, 15)):
            for lam in (1, 2):
                params = ones_params(n, m, 3, lam)
                for seed in range(10):
                    run_one(params, seed)
        assert time.monotonic() - start < 30.0


def test_criterion_3_mixed_r():
    with criterion(3, "non-uniform r handled end to end"):
        for params in (Parameters(n=6, m=3, h=2, lam=2, r=(2, 2, 2, 2, 2)),
                       Parameters(n=8, m=3, h=2, lam=1, r=(2, 2, 1, 1, 1))):
            for seed in range(5):
                run_one(params, seed)


def test_criterion_4_worked_example_regression(tmp_path):
    with criterion(4, "worked 2->4 instance yields the three perfect matchings"):
        inst_path = tmp_path / "worked.json"
        inst_path.write_text(WORKED_DOC)
        cert_path = tmp_path / "cert.json"
        assert cli.main(["extend", str(inst_path), "-o", str(cert_path)]) == 0
        cert = parse_certificate(cert_path.read_text())

        by_color = {1: set(), 2: set(), 3: set()}
        for cls in cert.coloring:
            for j, cnt in cls.colors.items():
                assert cnt == 1
                by_color[j + 1].add(cls.support)
        for j, matching in by_color.items():
            assert len(matching) == 2
            assert sorted(v for e in matching for v in e) == [1, 2, 3, 4], j
        assert (1, 2) in by_color[1]
        # frozen deterministic output
        assert by_color == {1: {(1, 2), (3, 4)},
                            2: {(1, 3), (2, 4)},
                            3: {(1, 4), (2, 3)}}
        assert cert.report["pass"] is True


def test_criterion_5_never_stuck_above_bound():
    with criterion(5, ">= 500 seeded runs over h in {2,3,4}, zero stuck/quota/infeasible"):
        cells: list[tuple[Parameters, range]] = []
        for m in (2, 3, 4):
            for n in (2 * m, 2 * m + 2, 2 * m + 4):
                cells.append((ones_params(n, m, 2, 1), range(40)))
        cells.append((ones_params(9, 3, 3, 1), range(50)))
        cells.append((ones_params(12, 3, 3, 1), range(50)))
        cells.append((ones_params(9, 3, 3, 2), range(20)))
        cells.append((Parameters(n=20, m=4, h=4, lam=1, r=(51,) * 19), range(24)))

        runs = 0
        for params, seeds in cells:
            assert bound_holds(params.n, params.m, params.h)
            for seed in seeds:
                run_one(params, seed)   # raises on stuck/quota/infeasible
                runs += 1
        assert runs >= 500


def test_criterion_6_inequality_suite():
    with criterion(6, "combinatorial identity and inequality grids, < 5 s"):
        start = time.monotonic()
        for a in range(1, 61):
            for b in range(1, a + 1):
                assert binom(a, b) == binom(a - 1, b - 1) + binom(a - 1, b)
        for n in range(1, 31):
            for m in range(1, n + 1):
                for h in range(1, m + 1):
                    assert vandermonde_sum(n, m, h) == binom(n, h)
                    if h >= 2:
                        assert blocked_degree_bound(n, m, h, h - 1) == binom(n - 1, h - 1)
        for h in range(2, 8):
            for m in range(h, 16):
                first = next(n for n in count(m) if bound_holds(n, m, h))
                for n in range(first, first + 11):
                    assert outside_majority_holds(n, m, h)
                    for level in range(1, h - 1):
                        assert blocked_degree_bound(n, m, h, level) < binom(n - 1, h - 1)
                for n in range(m, first + 11):
                    if bound_holds(n, m, h):
                        assert bound_holds(n + 1, m, h)
        for h in range(3, 9):
            for m in range(h, 21):
                assert bound_holds((h - 1) * (2 * m - 1), m, h)
        assert time.monotonic() - start < 5.0


class InstrumentedChecks:
    """Independent exact-rational recheck of every detachment step."""

    def __init__(self):
        self.steps = 0
        self.violations = 0

    def __call__(self, state, tp, plan) -> None:
        p = state.params
        q = Fraction(state.weight)
        ok = True
        weight = [0] * p.k
        for (support, level), cls in state.classes.items():
            ok &= cls.total() == p.lam * binom(state.weight, level)
            for j, cnt in cls.colors.items():
                weight[j] += level * cnt
        ok &= all(weight[j] == p.r[j] * q for j in range(p.k))
        # Each row is its class's own map, colors ascending with nonzero caps;
        # its plan row maps each color that moves, ascending, to a nonzero
        # count. A color it does not hold has cap 0 and moves nothing.
        col_sums = [Fraction(0)] * p.k
        move_sums = [0] * p.k
        ok &= len(plan.moves) == len(tp.rows) == len(tp.held)
        for c, key in enumerate(tp.rows):
            level = key[1]
            held, moves = tp.held[c], plan.moves[c]
            colors, caps = list(held), list(held.values())
            ok &= held is state.classes[key].colors and all(caps)
            ok &= colors == sorted(set(colors)) and all(0 <= j < p.k for j in colors)
            ok &= len(caps) == len(colors) and list(moves) == sorted(moves)
            witness_row = [Fraction(cap * level, state.weight) for cap in caps]
            ok &= sum(witness_row) == tp.supplies[c]
            ok &= all(x <= cap for x, cap in zip(witness_row, caps))
            ok &= sum(moves.values()) == tp.supplies[c]
            ok &= all(0 < moved <= held.get(j, 0) for j, moved in moves.items())
            for j, x in zip(colors, witness_row):
                col_sums[j] += x
            for j, moved in moves.items():
                move_sums[j] += moved
        ok &= all(col_sums[j] == tp.demands[j] for j in range(p.k))
        ok &= all(move_sums[j] == tp.demands[j] for j in range(p.k))
        self.steps += 1
        if not ok:
            self.violations += 1


def test_criterion_7_detachment_invariants():
    with criterion(7, "instrumented detachment invariants over the h=2/h=3 sweeps"):
        checks = InstrumentedChecks()
        for m in (2, 3, 4):
            for n in range(2 * m, 2 * m + 7, 2):
                params = ones_params(n, m, 2, 1)
                for seed in range(20):
                    run_one(params, seed, hook=checks)
        for m, n in ((3, 9), (4, 15)):
            for lam in (1, 2):
                params = ones_params(n, m, 3, lam)
                for seed in range(10):
                    run_one(params, seed, hook=checks)
        assert checks.steps > 1000
        assert checks.violations == 0


def test_criterion_8_oracle_agreement():
    with criterion(8, "brute force and pipeline agree on every <= 60-copy cell"):
        # Every admissible above-bound cell of h 2-4, m h..9, n m+1..3m+5,
        # lambda 1-3 and the three r patterns that needs <= 60 new copies.
        # All 54 are h=2: the smallest such h=3 cell already needs 83.
        cells = []
        for h in (2, 3, 4):
            for m in range(h, 10):
                for n in range(m + 1, 3 * m + 6):
                    if not bound_holds(n, m, h):
                        continue
                    for lam in (1, 2, 3):
                        if lam * (binom(n, h) - binom(m, h)) > 60:
                            continue
                        for pattern in ("ones", "uniform:2", "uniform:3"):
                            try:
                                r = cli.build_r_vector(pattern, n, h, lam)
                            except InadmissibleParameters:
                                continue
                            params = Parameters(n=n, m=m, h=h, lam=lam, r=r)
                            if is_admissible(params):
                                cells.append(params)
        assert len(cells) == 54
        cells.append(Parameters(n=8, m=3, h=2, lam=1, r=(2, 2, 1, 1, 1)))   # mixed r
        for params in cells:
            new_copies = params.lam * (binom(params.n, params.h) - binom(params.m, params.h))
            assert new_copies <= 60
            for seed in range(3):
                inst = random_instance(params, seed=seed)
                oracle = brute_force_extend(inst)
                assert oracle not in (EXHAUSTED, TOO_LARGE), params
                pipeline = extend_instance(inst, seed=seed)
                assert verify_certificate(oracle, inst).ok
                assert verify_certificate(pipeline, inst).ok


def test_criterion_9_negative_paths(tmp_path):
    with criterion(9, "inadmissible -> 2, below bound -> 3, corrupted -> 4"):
        bad_sum = json.loads(WORKED_DOC)
        bad_sum["r"] = [1, 1]
        path2 = tmp_path / "inadmissible.json"
        path2.write_text(json.dumps(bad_sum))
        assert cli.main(["extend", str(path2)]) == 2

        below = {"n": 12, "m": 4, "h": 3, "lambda": 1, "r": [1] * binom(11, 2),
                 "edges": [{"support": list(s), "alpha": 0, "colors": {str(i + 1): 1}}
                           for i, s in enumerate([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])]}
        path3 = tmp_path / "below.json"
        path3.write_text(json.dumps(below))
        assert cli.main(["extend", str(path3)]) == 3

        path4 = tmp_path / "corrupt.json"
        path4.write_text('{"n": 4, "unexpected": 1}')
        assert cli.main(["extend", str(path4)]) == 4

        path5 = tmp_path / "stuck.json"
        path5.write_text(STUCK_DOC)
        assert cli.main(["extend", str(path5), "--force"]) == 5
