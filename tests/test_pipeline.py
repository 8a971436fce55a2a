"""End-to-end pipeline tests and trace format checks."""
from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hyperfactor.combinatorics import binom, bound_holds
from hyperfactor import cli, pipeline
from hyperfactor.errors import (
    GenerationFailed,
    GreedyStuck,
    InadmissibleParameters,
    InternalInvariantViolation,
    NegativeTopLevelQuota,
)
from hyperfactor.generate import random_instance
from hyperfactor.model import (
    Certificate,
    EdgeClass,
    Instance,
    Parameters,
    is_admissible,
    parse_instance,
    serialize_certificate,
    serialize_instance,
    validate_instance,
)
from hyperfactor.pipeline import extend_instance, single_edge_instance
from hyperfactor.verify import verify_certificate

from conftest import make_instance
from oracles import EXHAUSTED, TOO_LARGE, brute_force_extend

# frozen below-bound witness: the deterministic greedy sticks at level 1
STUCK_DOC = (
    '{"n":7,"m":5,"h":3,"lambda":1,"r":[3,3,3,3,3],'
    '"edges":[{"support":[1,2,3],"alpha":0,"colors":{"1":1}},'
    '{"support":[1,2,4],"alpha":0,"colors":{"2":1}},'
    '{"support":[1,2,5],"alpha":0,"colors":{"2":1}},'
    '{"support":[1,3,4],"alpha":0,"colors":{"2":1}},'
    '{"support":[1,3,5],"alpha":0,"colors":{"3":1}},'
    '{"support":[1,4,5],"alpha":0,"colors":{"5":1}},'
    '{"support":[2,3,4],"alpha":0,"colors":{"3":1}},'
    '{"support":[2,3,5],"alpha":0,"colors":{"3":1}},'
    '{"support":[2,4,5],"alpha":0,"colors":{"5":1}},'
    '{"support":[3,4,5],"alpha":0,"colors":{"5":1}}]}\n')


def _stuck_greedy(state, level, rng=None):
    raise GreedyStuck((1,), level)


class TestExtendInstance:
    def test_worked_example(self, worked_instance):
        cert = extend_instance(worked_instance)
        assert verify_certificate(cert, worked_instance).ok

    def test_seed_changes_run_but_stays_valid(self):
        params = Parameters(n=9, m=3, h=3, lam=1, r=(1,) * 28)
        inst = random_instance(params, seed=0)
        for run_seed in (None, 1, 2):
            cert = extend_instance(inst, seed=run_seed)
            assert verify_certificate(cert, inst).ok

    def test_instance_is_left_alone(self):
        # The state copies each input class, so the certificate, built from
        # the state's own classes, shares no color map with the instance.
        inst = random_instance(Parameters(n=9, m=3, h=3, lam=2, r=(2,) * 28), seed=3)
        before = serialize_instance(inst)
        cert = extend_instance(inst)
        assert serialize_instance(inst) == before
        assert not {id(c.colors) for c in cert.coloring} & {id(c.colors) for c in inst.coloring}

    def test_trace_shapes(self, worked_instance):
        records = []
        extend_instance(worked_instance, trace=records.append)
        stages = [r["stage"] for r in records]
        assert stages == ["level", "detach", "detach"]
        assert records[0].keys() == {"stage", "i", "t_ms"} and records[0]["i"] == 1
        assert all(r.keys() == {"stage", "s", "q", "t_ms"} for r in records[1:])
        stamps = [r["t_ms"] for r in records]
        assert stamps == sorted(stamps) and stamps[0] >= 0

    def test_greedy_stuck_below_bound(self):
        inst = parse_instance(STUCK_DOC)
        assert validate_instance(inst).ok
        with pytest.raises(GreedyStuck):
            extend_instance(inst)

    def test_negative_quota_below_bound(self):
        # 3 perfect matchings of K_4 cannot reach K_6: colors 4 and 5 would
        # need matchings avoiding every colored K_4 edge
        inst = make_instance(6, 4, 2, 1, (1,) * 5, {
            (1, 2): {1: 1}, (3, 4): {1: 1},
            (1, 3): {2: 1}, (2, 4): {2: 1},
            (1, 4): {3: 1}, (2, 3): {3: 1},
        })
        with pytest.raises(NegativeTopLevelQuota):
            extend_instance(inst)

    @pytest.mark.parametrize("name, broken, message", [
        ("greedy_color_level", _stuck_greedy, "no feasible color for edge {1} at level 1"),
        ("finish_levels", lambda state: [-1, 1, 2], "color 1 needs -1 all-new edges"),
    ], ids=["greedy_stuck", "negative_quota"])
    def test_stuck_above_the_bound_is_a_bug(self, worked_instance, monkeypatch,
                                            name, broken, message):
        monkeypatch.setattr(pipeline, name, broken)
        with pytest.raises(InternalInvariantViolation) as caught:
            extend_instance(worked_instance)
        assert str(caught.value) == message
        assert isinstance(caught.value.__cause__, (GreedyStuck, NegativeTopLevelQuota))

    def test_below_bound_can_still_succeed(self):
        # below the bound the greedy is best-effort, not doomed
        inst = make_instance(4, 3, 2, 1, (1, 1, 1),
                             {(1, 2): {1: 1}, (1, 3): {2: 1}, (2, 3): {3: 1}})
        cert = extend_instance(inst)
        assert verify_certificate(cert, inst).ok

    def test_doubled_mixed_r_cell(self):
        params = Parameters(n=6, m=3, h=2, lam=2, r=(4, 2, 2, 1, 1))
        for seed in range(3):
            inst = random_instance(params, seed=seed)
            cert = extend_instance(inst, seed=seed)
            assert verify_certificate(cert, inst).ok

    def test_restriction_of_certificate_revalidates(self):
        params = Parameters(n=8, m=3, h=2, lam=1, r=(2, 2, 1, 1, 1))
        inst = random_instance(params, seed=3)
        cert = extend_instance(inst)
        restricted = [c for c in cert.coloring if c.support[-1] <= 3]
        again = Instance(params=params, coloring=restricted)
        assert validate_instance(again).ok


def random_admissible_r(n, h, lam, rng):
    """Random admissible degree vector: parts are multiples of h/gcd(n, h)."""
    from math import gcd
    d = h // gcd(n, h)
    total = lam * binom(n - 1, h - 1)
    assert total % d == 0
    parts = [d] * (total // d)
    for _ in range(rng.randrange(0, max(1, len(parts) - 1))):
        if len(parts) <= 2:
            break
        i = rng.randrange(len(parts) - 1)
        parts[i] += parts.pop(i + 1)
    rng.shuffle(parts)
    return tuple(parts)


class TestRandomDegreeVectors:
    def test_fuzz_above_bound(self):
        import random
        from itertools import count
        rng = random.Random(0xFAC70)
        runs = 0
        for h in (2, 3):
            for m in range(h, 5):
                first = next(n for n in count(m + 1) if bound_holds(n, m, h))
                for n in range(first, first + 3):
                    for _ in range(3):
                        r = random_admissible_r(n, h, 1, rng)
                        params = Parameters(n=n, m=m, h=h, lam=1, r=r)
                        seed = rng.randrange(10**6)
                        inst = random_instance(params, seed=seed)
                        cert = extend_instance(inst, seed=seed)
                        assert verify_certificate(cert, inst).ok, (n, m, h, r, seed)
                        runs += 1
        assert runs == 45


def theorem_cells() -> list[tuple[int, int, int, int]]:
    """(h, m, n, lambda): h 2-4, m h..h+3, lambda 1-2, n the first 4 values above the bound.

    Only cells with C(n, h) <= 3 060 are kept: the smallest h = 4 cell above
    the bound (n = 18, m = 4) has exactly that many subsets.
    """
    cells = []
    for h in (2, 3, 4):
        for m in range(h, h + 4):
            first = next(n for n in range(m + 1, 10 * m) if bound_holds(n, m, h))
            cells += [(h, m, n, lam) for n in range(first, first + 4) for lam in (1, 2)
                      if binom(n, h) <= 3060]
    return cells


def check_plan_rows(state, tp, plan) -> None:
    """A ``detach_step`` hook: each plan row is an ascending nonzero map within its caps."""
    assert len(plan.moves) == len(tp.rows)
    for key, held, moves in zip(tp.rows, tp.held, plan.moves):
        assert held is state.classes[key].colors, key
        assert list(moves) == sorted(moves), (key, moves)
        assert all(0 < moved <= held.get(j, 0) for j, moved in moves.items()), (key, moves)


class TestTheorem:
    """Above the bound every admissible instance extends (the paper's theorem)."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(cell=st.sampled_from(theorem_cells()), r_seed=st.integers(0, 2**32),
           seed=st.integers(0, 999), greedy=st.booleans())
    def test_any_admissible_r_extends_and_verifies(self, cell, r_seed, seed, greedy):
        h, m, n, lam = cell
        params = Parameters(n=n, m=m, h=h, lam=lam,
                            r=random_admissible_r(n, h, lam, random.Random(r_seed)))
        inst = random_instance(params, seed=seed)
        greedy_seed = seed if greedy else None
        cert = extend_instance(inst, seed=greedy_seed, hook=check_plan_rows)
        assert verify_certificate(cert, inst).ok, (params, seed)
        again = extend_instance(inst, seed=greedy_seed)
        assert serialize_certificate(again) == serialize_certificate(cert), (params, seed)

    def test_cells_span_h_2_to_4(self):
        assert {h for h, *_ in theorem_cells()} == {2, 3, 4}

    def test_inadmissible_r_exits_2_with_one_error_line(self, tmp_path, capsys):
        """The converse: an r that breaks admissibility is refused by extend and gen."""
        rng = random.Random(9)
        ways = Counter()
        path = tmp_path / "inst.json"
        for t in range(20):
            h, m, n, lam = rng.choice(theorem_cells())
            r = list(random_admissible_r(n, h, lam, rng))
            inst = random_instance(Parameters(n=n, m=m, h=h, lam=lam, r=tuple(r)), seed=t)
            doc = json.loads(serialize_instance(inst))
            unit = rng.randrange(len(r))
            broken = {"degree": r[:unit] + [r[unit] + 1] + r[unit + 1:]}   # the sum is off by one
            if n % h:   # parts are multiples of h / gcd(n, h) > 1: a part of 1 keeps the sum
                broken["divisibility"] = r[:unit] + [1, r[unit] - 1] + r[unit + 1:]
            for way, bad in broken.items():
                ways[way] += 1
                doc["r"] = bad
                path.write_text(json.dumps(doc))
                for argv in (["extend", str(path)],
                             ["gen", "--n", str(n), "--m", str(m), "--h", str(h),
                              "--lam", str(lam), "--r", ",".join(map(str, bad))]):
                    assert cli.main(argv) == 2, (argv[0], way, h, m, n, lam)
                    err = capsys.readouterr().err.splitlines()
                    assert len(err) == 1 and err[0].startswith("error: "), (argv[0], way, err)
        assert ways["degree"] == 20 and ways["divisibility"] > 0, ways


def h2_below_bound_cells() -> list[tuple[Parameters, int]]:
    """The admissible below-bound h = 2 grid, as (parameters, seed).

    m 3-9, n from m + 1 to 2m - 1, lambda 1-3, r ones, uniform:2 or uniform:3,
    seeds 0-2.
    """
    cells = []
    for m in range(3, 10):
        for n, lam, pattern, seed in product(range(m + 1, 2 * m), (1, 2, 3),
                                             ("ones", "uniform:2", "uniform:3"), range(3)):
            try:
                params = Parameters(n=n, m=m, h=2, lam=lam,
                                    r=cli.build_r_vector(pattern, n, 2, lam))
            except InadmissibleParameters:
                continue
            if is_admissible(params):
                cells.append((params, seed))
    return cells


class TestH2ExistenceRule:
    """At h = 2 an instance extends exactly when 2 e_j >= r_j (2m - n) for every color j.

    e_j counts the instance's copies of color j. At h = 2 the level stage is
    forced, so color j's top quota is e_j - r_j (m - n/2) and the rule says
    that no quota is negative; detachment never fails from a checked state.
    Above the bound, n >= 2m, the rule always holds, so the grid lies below it.
    """

    @staticmethod
    def rule_holds(inst) -> bool:
        p = inst.params
        copies = [0] * p.k
        for cls in inst.coloring:
            for j, cnt in cls.colors.items():
                copies[j] += cnt
        return all(2 * e >= rj * (2 * p.m - p.n) for e, rj in zip(copies, p.r))

    @pytest.fixture(scope="class")
    def grid(self):
        instances = []
        for params, seed in h2_below_bound_cells():
            assert not bound_holds(params.n, params.m, params.h), params
            try:
                instances.append(random_instance(params, seed=seed))
            except GenerationFailed:   # 6 of the 447 cells have no random instance
                continue
        return instances

    def test_the_engine_extends_exactly_when_the_rule_holds(self, grid):
        none = 0
        for inst in grid:
            try:   # a GreedyStuck fails the test: at h = 2 the greedy level is forced
                ok = verify_certificate(extend_instance(inst), inst).ok
            except NegativeTopLevelQuota:
                ok = False
            assert ok == self.rule_holds(inst), inst.params
            none += not ok
        assert (len(grid), none) == (441, 235)

    def test_the_oracle_agrees_where_it_decides(self, grid):
        decided = none = 0
        for inst in grid:
            found = brute_force_extend(inst, copy_budget=20)
            if found is TOO_LARGE:
                continue
            decided += 1
            none += found is EXHAUSTED
            assert (found is not EXHAUSTED) == self.rule_holds(inst), inst.params
        assert (decided, none) == (121, 55)


class TestSingleEdgeInstance:
    def test_seeds_lowest_colors_within_caps(self):
        params = Parameters(n=6, m=2, h=2, lam=3, r=(2, 2, 2, 2, 1))
        inst = single_edge_instance(params)
        assert inst.coloring[0].support == (1, 2)
        assert inst.coloring[0].colors == {0: 2, 1: 1}
        assert validate_instance(inst).ok

    def test_requires_m_equals_h(self):
        with pytest.raises(ValueError):
            single_edge_instance(Parameters(n=6, m=3, h=2, lam=1, r=(1,) * 5))

    def test_caps_too_small_for_the_seed_copies(self):
        with pytest.raises(ValueError, match="^degree caps cannot absorb the seed edge copies$"):
            single_edge_instance(Parameters(n=5, m=2, h=2, lam=3, r=(1,)))


def _ones(n, m, h, lam):
    return Parameters(n=n, m=m, h=h, lam=lam, r=(1,) * (lam * binom(n - 1, h - 1)))


# sha256 of the verified certificate of random_instance(params, seed) extended
# with the same seed; any change to a plan or to the serialization shows here.
GOLDEN_CERTIFICATES = [
    (_ones(12, 4, 2, 1), 0, "f0299643e4fd6d45a7eb52c5f6c852764b5266588ed1c24821b6c80d13498730"),
    (_ones(12, 4, 2, 1), 1, "edc87260f9c74ec4baf08a4a0e65f90f4e4696e96616cf09de29da7b79d2b9e3"),
    (Parameters(n=8, m=3, h=2, lam=1, r=(2, 2, 1, 1, 1)), 0,
     "923adf07de9a6ef9c791040e9a45bcd107de22359ac8b005a53c053a523fe9f2"),
    (Parameters(n=8, m=3, h=2, lam=1, r=(2, 2, 1, 1, 1)), 1,
     "6c38b5beb6f55344eb02e74a8394109ae307c20a46f24d3f88ec3a3a382c7bf9"),
    (_ones(12, 3, 3, 1), 0, "f955b1f0efc8832b4b5ff7207223e20b2e1e247fa70a600a2c8ad2df780e0f8e"),
    (_ones(12, 3, 3, 1), 1, "c40f8c5b0f51a5a17b9b2656e001b4d6deb7cea93de3e7509d016ddaf49c05f4"),
    (_ones(15, 4, 3, 2), 0, "447ee229c2910c4dfc704c3fb7fa0605c43931a1d34288ebd1779a86ad5e8944"),
    (_ones(15, 4, 3, 2), 1, "1343da7fa43c43acd50a8bf30a0cb7d0fe56cad5a5d1d7571f4f621d0a6acc38"),
    # the benchmark's h3_sparse and h2_dense instances: wide steps, many phases
    (_ones(33, 9, 3, 1), 1, "78caf22fb3493bc571a5b7dddbc81ec3078b07826fed06b87f2e375835ab61ac"),
    (_ones(160, 40, 2, 1), 1, "c4aca43f487c7b8334a8b1772388a3f1091de99637cefc02df8157b1315ea05d"),
]


@pytest.mark.parametrize("params, seed, digest", GOLDEN_CERTIFICATES)
def test_golden_certificate_bytes(params, seed, digest):
    inst = random_instance(params, seed=seed)
    cert = extend_instance(inst, seed=seed)
    cert.report = verify_certificate(cert, inst).to_json()
    assert hashlib.sha256(serialize_certificate(cert).encode()).hexdigest() == digest


def _relabel(coloring, vertex, color):
    """The classes with each vertex v renamed vertex[v] and each color j color[j]."""
    return sorted((EdgeClass(support=tuple(sorted(vertex[v] for v in cls.support)),
                             amalgam=cls.amalgam,
                             colors=dict(sorted((color[j], cnt) for j, cnt in cls.colors.items())))
                   for cls in coloring), key=EdgeClass.key)


class TestMetamorphic:
    """Renaming vertices, or colors of equal target degree, changes no verdict."""

    CELLS = [(8, 3, 2, 1, "ones"), (8, 3, 2, 1, "2,2,1,1,1"), (10, 4, 2, 2, "uniform:2"),
             (9, 3, 3, 1, "ones"), (12, 3, 3, 1, "ones")]

    @staticmethod
    def case(cell, seed):
        """The cell's instance, a seeded rng, a permutation pi of [1, m], the same
        pi extended by a permutation of [m+1, n], and a permutation sigma of the
        colors within each group of equal r_j."""
        n, m, h, lam, pattern = cell
        params = Parameters(n=n, m=m, h=h, lam=lam, r=cli.build_r_vector(pattern, n, h, lam))
        rng = random.Random(seed)
        pi = dict(zip(range(1, m + 1), rng.sample(range(1, m + 1), m)))
        both = {**pi, **dict(zip(range(m + 1, n + 1), rng.sample(range(m + 1, n + 1), n - m)))}
        sigma = {}
        for rj in sorted(set(params.r)):
            group = [j for j in range(params.k) if params.r[j] == rj]
            sigma.update(zip(group, rng.sample(group, len(group))))
        return random_instance(params, seed=seed), rng, pi, both, sigma

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("cell", CELLS, ids=lambda cell: "_".join(map(str, cell)))
    def test_transformed_instance_extends(self, cell, seed):
        inst, _, pi, _, sigma = self.case(cell, seed)
        moved = Instance(params=inst.params, coloring=_relabel(inst.coloring, pi, sigma))
        assert validate_instance(moved).ok
        cert = extend_instance(moved, seed=seed)
        # verification includes the extension check: restricted to [1, m],
        # the certificate is the transformed instance
        assert verify_certificate(cert, moved).ok

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("cell", CELLS, ids=lambda cell: "_".join(map(str, cell)))
    def test_relabeling_keeps_the_verdict(self, cell, seed):
        inst, rng, _, both, sigma = self.case(cell, seed)
        cert = extend_instance(inst, seed=seed)
        # the same certificate with one copy moved to another color
        coloring = [EdgeClass(cls.support, cls.amalgam, dict(cls.colors)) for cls in cert.coloring]
        colors = rng.choice(coloring).colors
        j = rng.choice(sorted(colors))
        other = rng.choice([i for i in range(inst.params.k) if i != j])
        colors[j] -= 1
        colors[other] = colors.get(other, 0) + 1
        if not colors[j]:
            del colors[j]
        broken = Certificate(params=inst.params, coloring=coloring)
        moved_inst = Instance(params=inst.params, coloring=_relabel(inst.coloring, both, sigma))
        verdicts = []
        for c in (cert, broken):
            before = verify_certificate(c, inst)
            after = verify_certificate(
                Certificate(params=c.params, coloring=_relabel(c.coloring, both, sigma)), moved_inst)
            assert after.ok == before.ok
            assert (Counter(f["kind"] for f in after.failures)
                    == Counter(f["kind"] for f in before.failures))
            verdicts.append(before.ok)
        assert verdicts == [True, False]
